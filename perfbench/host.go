package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostIdentity is the host block every result carries, so numbers are
// only ever compared within one host.
func hostIdentity(commit, dirty string) map[string]any {
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
		"dirty":      dirty == "true",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != "VmHWM" {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM %q: %w", v, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// passPeakRSS runs one pass of a workload in this process and returns its
// wall time and the peak resident set size sampled while it ran, in MiB.
// The heap is collected and returned to the OS first, so every pass starts
// from the same footing.
func passPeakRSS(fn func() error) (time.Duration, float64, error) {
	runtime.GC()
	debug.FreeOSMemory()
	stop := make(chan struct{})
	peak := make(chan int64)
	go func() {
		var max int64
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			if r := residentBytes(); r > max {
				max = r
			}
			select {
			case <-stop:
				peak <- max
				return
			case <-t.C:
			}
		}
	}()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	close(stop)
	return d, float64(<-peak) / (1 << 20), err
}

// residentBytes is this process's current resident set size (0 if
// unreadable).
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// median of vs (vs is not modified).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is median over durations, in seconds.
func medianDur(ds []time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = d.Seconds()
	}
	return median(vs)
}

// tailPercentile picks the highest of the usual tail percentiles that
// still has at least ten samples beyond it, and returns it with its value
// (nearest rank) from the sorted sample.
func tailPercentile(sorted []float64) (pct, value float64) {
	n := float64(len(sorted))
	pct = 50
	for _, p := range []float64{99.9, 99, 95, 90} {
		if n*(1-p/100) >= 10 {
			pct = p
			break
		}
	}
	return pct, nearestRank(sorted, pct)
}

// nearestRank is the nearest-rank percentile of a sorted sample.
func nearestRank(sorted []float64, pct float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(pct/100*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i]
}
