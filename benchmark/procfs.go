package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTick is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat. It is 100 on every Linux the Go toolchain supports.
const clockTick = 100

// procCPU returns the CPU seconds (user + system) a process has used.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatCPU reads utime and stime (fields 14 and 15) from the contents of
// a /proc/<pid>/stat file. The command name, field 2, may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPU(b []byte) (float64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("procfs: no command field in stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("procfs: stat has %d fields after the command", len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("procfs: bad utime/stime %q %q", f[11], f[12])
	}
	return float64(utime+stime) / clockTick, nil
}

// procPeakRSS returns a process's peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(b)
}

func parseStatusHWM(b []byte) (float64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("procfs: bad VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("procfs: no VmHWM in status")
}

// fleetCPU sums procCPU over the pids.
func fleetCPU(pids []int) (float64, error) {
	total := 0.0
	for _, pid := range pids {
		c, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// selfCPU is this process's own CPU seconds.
func selfCPU() (float64, error) { return procCPU(os.Getpid()) }
