package main

import (
	"bytes"
	"os"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// processCPU is the process's user+system CPU time so far (getrusage),
// which time stolen by other tenants of the host does not inflate.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tickInterval is how often the sampler reads CPU time and RSS.
const tickInterval = 25 * time.Millisecond

// tick is one sampler reading.
type tick struct {
	at    time.Time
	cpu   time.Duration
	rssMB float64
}

// startSampler reads the process's CPU time and resident set size every
// tickInterval until the returned function is called; that function
// stops the sampler, waits for it, and returns the readings.
func startSampler() func() []tick {
	stop := make(chan struct{})
	var (
		wg    sync.WaitGroup
		ticks []tick
	)
	page := float64(os.Getpagesize())
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(tickInterval)
		defer t.Stop()
		for {
			rss, _ := readRSS(page) // a failed read counts as 0 MB
			ticks = append(ticks, tick{time.Now(), processCPU(), rss})
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() []tick {
		close(stop)
		wg.Wait()
		return ticks
	}
}

// cpuAt interpolates the process CPU time at t from the sampler's
// readings.
func cpuAt(ticks []tick, t time.Time) time.Duration {
	i := sort.Search(len(ticks), func(i int) bool { return !ticks[i].at.Before(t) })
	switch {
	case len(ticks) == 0:
		return 0
	case i == 0:
		return ticks[0].cpu
	case i == len(ticks):
		return ticks[len(ticks)-1].cpu
	}
	a, b := ticks[i-1], ticks[i]
	f := float64(t.Sub(a.at)) / float64(b.at.Sub(a.at))
	return a.cpu + time.Duration(f*float64(b.cpu-a.cpu))
}

// readRSS reads the resident set size from /proc/self/statm, in MB.
func readRSS(page float64) (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(pages) * page / (1 << 20), true
}

// startProfile starts the process CPU profiler into memory; the returned
// function stops it and returns the gzipped profile.
func startProfile() (func() ([]byte, error), error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	return func() ([]byte, error) {
		pprof.StopCPUProfile()
		return buf.Bytes(), nil
	}, nil
}
