package main

import (
	"math"
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := []byte("4242 (ripple) serve (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 731 269 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	got, err := parseStatCPU(stat)
	if err != nil || math.Abs(got-10.0) > 1e-9 {
		t.Errorf("parseStatCPU = %v, %v; want 10 s (731+269 ticks)", got, err)
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Error("garbage must not parse")
	}
	if cpu, err := selfCPU(); err != nil || cpu < 0 {
		t.Errorf("selfCPU = %v, %v", cpu, err)
	}
}

func TestParseStatusHWM(t *testing.T) {
	status := []byte("Name:\tripple-serve\nVmPeak:\t 1234567 kB\nVmHWM:\t   15360 kB\nVmRSS:\t   14000 kB\n")
	got, err := parseStatusHWM(status)
	if err != nil || got != 15 {
		t.Errorf("parseStatusHWM = %v, %v; want 15 MB", got, err)
	}
	if _, err := parseStatusHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("a status without VmHWM must not parse")
	}
	if rss, err := procPeakRSS(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("procPeakRSS(self) = %v, %v", rss, err)
	}
}
