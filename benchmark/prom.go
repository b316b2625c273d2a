package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample is a scrape of one /metrics endpoint: series name, labels
// included, to value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format: comment lines are
// skipped, every other line is `series value`, where series may carry a
// {label="value"} set that itself contains spaces.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("prom: no value on line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: bad value on line %q", line)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// add folds another peer's scrape into the fleet total.
func (s promSample) add(o promSample) {
	for k, v := range o {
		s[k] += v
	}
}

// delta returns after[k] - before[k].
func promDelta(before, after promSample, k string) float64 { return after[k] - before[k] }

// histMean is a histogram's mean over the interval between two scrapes, from
// its _sum and _count series; 0 when nothing was observed.
func histMean(before, after promSample, name string) float64 {
	n := promDelta(before, after, name+"_count")
	if n <= 0 {
		return 0
	}
	return promDelta(before, after, name+"_sum") / n
}
