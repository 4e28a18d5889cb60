package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// samples is one latency (or size) series, kept raw so every quantile is
// computed exactly from the observations, never from histogram buckets.
type samples []float64

func (s *samples) add(v float64)             { *s = append(*s, v) }
func (s *samples) addDur(d time.Duration)    { s.add(d.Seconds()) }
func (s samples) sorted() []float64          { c := append([]float64(nil), s...); sort.Float64s(c); return c }
func (s samples) quantile(q float64) float64 { return quantile(s.sorted(), q) }
func (s samples) median() float64            { return s.quantile(0.5) }

// quantile returns the q-quantile of an ascending slice by linear
// interpolation between the two nearest order statistics (the
// "type 7" definition used by numpy and R's default). Exact for the
// data: q = k/(n-1) returns sorted[k]. An empty slice yields 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case q <= 0:
		return sorted[0]
	case q >= 1:
		return sorted[n-1]
	}
	h := q * float64(n-1)
	if r := math.Round(h); math.Abs(h-r) < 1e-9 {
		h = r // q = k/(n-1) lands on sorted[k] despite rounding in q
	}
	lo := int(h)
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// tailQuantile is the highest of the usual reporting percentiles that
// still leaves at least ten samples beyond it, so a reported tail is
// never one or two outliers. With fewer than 20 samples it is the median.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if float64(n)*(1-q) >= 10-1e-9 { // 1-q is inexact in binary
			return q
		}
	}
	return 0.5
}

// summary is the report form of one series: count, median, the fixed
// percentiles the metrics use, and the honest tail for its size.
type summary struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	TailQ float64 `json:"tail_q"`
	Tail  float64 `json:"tail"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

func (s samples) summary() summary {
	c := s.sorted()
	if len(c) == 0 {
		return summary{}
	}
	tq := tailQuantile(len(c))
	return summary{
		N: len(c), P50: quantile(c, 0.5), P90: quantile(c, 0.9), P99: quantile(c, 0.99),
		TailQ: tq, Tail: quantile(c, tq), Min: c[0], Max: c[len(c)-1],
	}
}

// sum adds a series up.
func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// mean is the arithmetic mean, 0 for an empty series.
func (s samples) mean() float64 { return ratio(s.sum(), float64(len(s))) }

// ratio divides, reporting 0 for an empty base instead of NaN/Inf (JSON
// cannot carry either).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads VmHWM (peak resident set) of a process from procfs.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fs[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuClock reads the machine-wide CPU time counters of /proc/stat: all
// time, and steal time, which a hypervisor gave to other guests. The
// steal share over a window says how much of a slow run was the host's
// doing.
type cpuClock struct{ total, steal uint64 }

func readCPUClock() (cpuClock, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuClock{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fs := strings.Fields(line)
	if len(fs) < 9 || fs[0] != "cpu" {
		return cpuClock{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var c cpuClock
	for i, f := range fs[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuClock{}, fmt.Errorf("parse /proc/stat: %w", err)
		}
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c, nil
}

// stealShare is the share of CPU time stolen since c.
func (c cpuClock) stealShare() (float64, error) {
	now, err := readCPUClock()
	if err != nil {
		return 0, err
	}
	return ratio(float64(now.steal-c.steal), float64(now.total-c.total)), nil
}

// memDelta brackets a call with runtime.MemStats reads: bytes allocated
// and GC cycles completed in between. ReadMemStats stops the world, so it
// is only used in traced runs, outside any timed interval.
type memDelta struct{ before runtime.MemStats }

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }

func (m *memDelta) stop() (allocMB float64, gcs uint32) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-m.before.TotalAlloc) / (1 << 20), after.NumGC - m.before.NumGC
}
