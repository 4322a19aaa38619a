// Command perfbench is the stems repository benchmark. One invocation
// runs one workload for a fixed time and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": 212, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures (throughput,
// latency percentiles, CPU time per job, RSS, set-up time); with -trace 1
// they are the per-layer ledger. Every workload is a closed loop of jobs
// with one fixed shape, and every result the benchmark receives is
// checked. See README.md in this directory for the workloads, the
// metrics, and the layer → end-to-end map.
//
//	bash perfbench/run.sh --workload sweep-kernel --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the seed whose simulated-statistic totals are kept in
// totals.json. README.md names the held-out seed for checking claims.
const defaultSeed = 1

// setupReps is how many times a run builds the workload's state from
// scratch; setup_s reports the median, and the last build is the one
// measured.
const setupReps = 5

// minJobs is the fewest timed jobs a phase completes: the phase runs past
// its deadline until this many have been attempted, so at least ten
// latency samples lie beyond p90.
const minJobs = 110

// maxPrinted is how many failed checks a run describes on stderr.
const maxPrinted = 20

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark workload. A run calls setup setupReps
// times (closing every build but the last), then runs timed phases of
// job calls from callers() goroutines, then verifies.
type workload interface {
	// setup builds the workload's state and warms it up.
	setup(ctx context.Context) error
	// callers is the closed loop's concurrency.
	callers() int
	// job runs job k from the given caller. Timed jobs count k from 0
	// across all phases of a run; warm-up jobs have k < 0.
	job(ctx context.Context, caller, k int) sample
	// snapshot records program-side counters at a phase boundary.
	snapshot(ctx context.Context) (counters, error)
	// verify runs the post-phase correctness checks: recomputations,
	// the default-seed totals, and the workload's property assertions
	// over the given phase counters. It returns a description of each
	// failure; jobs whose results fail a check are reported in badJobs.
	verify(ctx context.Context, phases []phase) (failures []string, badJobs int)
	// probe adds the traced run's workload-specific per-layer metrics to
	// m: figures derived from the traced phases' spans and counters
	// (pooled in traced), and timings of the benchmark's own calls into
	// single layers.
	probe(ctx context.Context, traced phase, m map[string]float64) error
	// close releases the current build.
	close()
}

// sample is one timed job as the caller observed it. Spans other than
// latency are zero where the workload has no such layer.
type sample struct {
	k          int
	begin, end time.Time // set by the closed loop around the job call
	latency    time.Duration
	submit     time.Duration // Client.Submit round trip
	phases     [5]time.Duration
	decode     time.Duration // client-side decode and check
	err        error
}

// counters are program-side counts. A snapshot reads them at a phase
// boundary; a phase keeps the difference of its two snapshots.
type counters struct {
	runsComputed     uint64
	cacheHits        uint64
	cacheMisses      uint64
	traceGenerations int
	accesses         uint64
	storeHits        uint64
	storeReads       latencySum
}

// latencySum is a histogram's count and total, so a phase's mean can be
// taken from the difference of two snapshots.
type latencySum struct {
	count uint64
	sumUs float64
}

// add returns c+o, or c−o when sign is -1.
func (c counters) add(o counters, sign int) counters {
	u := func(a, b uint64) uint64 {
		if sign < 0 {
			return a - b
		}
		return a + b
	}
	l := func(a, b latencySum) latencySum {
		return latencySum{u(a.count, b.count), a.sumUs + float64(sign)*b.sumUs}
	}
	return counters{
		runsComputed:     u(c.runsComputed, o.runsComputed),
		cacheHits:        u(c.cacheHits, o.cacheHits),
		cacheMisses:      u(c.cacheMisses, o.cacheMisses),
		traceGenerations: c.traceGenerations + sign*o.traceGenerations,
		accesses:         u(c.accesses, o.accesses),
		storeHits:        u(c.storeHits, o.storeHits),
		storeReads:       l(c.storeReads, o.storeReads),
	}
}

// phase is one timed phase's raw measurements.
type phase struct {
	traced  bool
	samples []sample
	t0      time.Time
	wall    time.Duration
	cpu     time.Duration
	ticks   []tick           // CPU time and RSS, sampled through the phase
	delta   counters         // counter growth over the phase
	self    map[string]int64 // CPU self ns by package, traced phases only
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sweep-kernel or stemsd-repeat")
		seed    = flag.Int64("seed", defaultSeed, "workload seed (inputs are a pure function of it)")
		seconds = flag.Int("seconds", 20, "timed seconds per run")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
	)
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥1 and -trace 0 or 1")
		os.Exit(2)
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	rep, err := run(w, *name, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	os.RemoveAll(scratchDir) //nolint:errcheck // best effort: .bench_build is ignored
	syscall.Sync()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// scratchDir holds the stores a run builds. They are deleted only once
// the run is over, and the deletion is synced before the process exits.
// On a file system mounted with online discard, deleted files are
// trimmed at the next journal commit, which an fsync forces: a deletion
// between set-ups would slow the next set-up's store writes, and one
// left pending at exit would slow the next run's.
var scratchDir = filepath.Join(".bench_build", "tmp", fmt.Sprintf("perfbench-%d", os.Getpid()))

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "sweep-kernel":
		return newKernel(seed), nil
	case "stemsd-repeat":
		return newStemsd(seed), nil
	}
	return nil, fmt.Errorf("unknown -workload %q (want sweep-kernel or stemsd-repeat)", name)
}

// run sets the workload up setupReps times, runs its timed phases, and
// verifies everything it received.
func run(w workload, name string, seed int64, d time.Duration, traced bool) (report, error) {
	ctx := context.Background()
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		runtime.GC()
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return report{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()
	fmt.Fprintf(os.Stderr, "perfbench: set-ups took %.3f s\n", setups)

	// An untraced run is one phase. A traced run alternates untraced and
	// traced quarters, so drift over the run does not bias the tracing
	// overhead.
	next := 0
	var phases []phase
	plan := []bool{false}
	if traced {
		plan, d = []bool{false, true, false, true}, d/4
	}
	for _, withProfile := range plan {
		p, err := timedPhase(ctx, w, &next, d, withProfile)
		if err != nil {
			return report{}, err
		}
		phases = append(phases, p)
	}

	failures, badJobs := w.verify(ctx, phases)
	rep := report{Metrics: make(map[string]metric)}
	for _, p := range phases {
		rep.Attempted += len(p.samples)
		for _, s := range p.samples {
			if s.err != nil {
				rep.Failed++
				failures = append(failures, fmt.Sprintf("job %d: %v", s.k, s.err))
			}
		}
	}
	rep.Failed += badJobs
	rep.Failed = min(rep.Failed, rep.Attempted)

	if !traced {
		endToEnd(rep.Metrics, phases[0], median(setups))
	} else {
		if err := ledger(ctx, w, name, seed, phases, rep.Metrics); err != nil {
			return report{}, err
		}
	}
	for i, f := range failures {
		if i == maxPrinted {
			fmt.Fprintf(os.Stderr, "perfbench: %d more checks failed\n", len(failures)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}
	rep.Correct = len(failures) == 0 && rep.Failed == 0
	return rep, nil
}

// timedPhase runs w's closed loop for d, sampling process CPU time and
// RSS, and with the CPU profiler on when traced. An untraced phase runs
// on past d until minJobs jobs were attempted, capped at 4d.
func timedPhase(ctx context.Context, w workload, next *int, d time.Duration, traced bool) (phase, error) {
	p := phase{traced: traced}
	runtime.GC()
	start, err := w.snapshot(ctx)
	if err != nil {
		return p, err
	}
	var stopProfile func() ([]byte, error)
	if traced {
		if stopProfile, err = startProfile(); err != nil {
			return p, err
		}
	}
	least := minJobs
	if traced {
		least = 0
	}
	stopSampler := startSampler()
	cpu0 := processCPU()
	p.t0 = time.Now()
	p.samples = closedLoop(ctx, w, next, least, p.t0.Add(d), p.t0.Add(4*d))
	p.wall = time.Since(p.t0)
	p.cpu = processCPU() - cpu0
	p.ticks = stopSampler()
	if traced {
		prof, err := stopProfile()
		if err != nil {
			return p, err
		}
		if p.self, err = selfByPackage(prof); err != nil {
			return p, fmt.Errorf("reading the CPU profile: %w", err)
		}
	}
	end, err := w.snapshot(ctx)
	p.delta = end.add(start, -1)
	return p, err
}

// closedLoop runs w.callers() callers, each sending its next job only
// after the previous one returns, until deadline — or, if fewer than
// least jobs were attempted by then, until that many were or hardStop
// passes. Job numbers are handed out in order from *next.
func closedLoop(ctx context.Context, w workload, next *int, least int, deadline, hardStop time.Time) []sample {
	n := w.callers()
	claims := make(chan int)
	results := make(chan []sample, n)
	for c := 0; c < n; c++ {
		go func() {
			var mine []sample
			for k := range claims {
				begin := time.Now()
				s := w.job(ctx, c, k)
				s.begin, s.end = begin, time.Now()
				mine = append(mine, s)
			}
			results <- mine
		}()
	}
	first := *next
	for {
		now := time.Now()
		if now.After(hardStop) || (now.After(deadline) && *next-first >= least) {
			break
		}
		claims <- *next
		*next++
	}
	close(claims)
	var all []sample
	for c := 0; c < n; c++ {
		all = append(all, <-results...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].k < all[j].k })
	return all
}

// windows is how many equal windows endToEnd splits a timed phase into.
const windows = 10

// blockJobs is the fewest jobs a latency block holds, so that ten of
// them lie beyond the block's p90.
const blockJobs = 100

// endToEnd derives the untraced run's metrics from its one phase. Each
// is a median over parts of the phase: throughput and CPU time per job
// over ten equal windows of time, latency percentiles over consecutive
// blocks of at least blockJobs jobs. Load from other tenants of the host
// then moves a metric only if it lasts for half the run.
func endToEnd(m map[string]metric, p phase, setup float64) {
	byEnd := slices.Clone(p.samples)
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].end.Before(byEnd[j].end) })
	lat := make([]float64, len(byEnd))
	for i, s := range byEnd {
		lat[i] = math.Inf(1) // a failed job misses every latency limit
		if s.err == nil {
			lat[i] = ms(s.latency)
		}
	}
	blocks := max(1, min(windows, len(lat)/blockJobs))
	var p50s, p90s []float64
	for b := 0; b < blocks; b++ {
		block := slices.Clone(lat[b*len(lat)/blocks : (b+1)*len(lat)/blocks])
		slices.Sort(block)
		p50s = append(p50s, percentile(block, 0.50))
		p90s = append(p90s, percentile(block, 0.90))
	}
	slices.Sort(lat)
	rate, cpu := windowRates(p, windows)
	rss := make([]float64, len(p.ticks))
	for i, t := range p.ticks {
		rss[i] = t.rssMB
	}
	slices.Sort(rss)
	m["jobs_per_s"] = metric{median(rate), "1/s"}
	m["job_p50_ms"] = metric{median(p50s), "ms"}
	m["job_p90_ms"] = metric{median(p90s), "ms"}
	m["cpu_ms_per_job"] = metric{median(cpu), "ms"}
	m["rss_p90_mb"] = metric{percentile(rss, 0.90), "MB"}
	m["setup_s"] = metric{setup, "s"}

	fmt.Fprintf(os.Stderr, "perfbench: %d timed jobs in %.2fs, %d latency blocks of ≥%d; %d CPU/RSS samples\n",
		len(lat), p.wall.Seconds(), blocks, len(lat)/blocks, len(p.ticks))
	fmt.Fprintf(os.Stderr, "perfbench: p50 by block %.4g\nperfbench: p90 by block %.4g\n", p50s, p90s)
	fmt.Fprintf(os.Stderr, "perfbench: pooled latency ms p10 %.3f p25 %.3f p50 %.3f p75 %.3f p90 %.3f p99 %.3f\n",
		percentile(lat, 0.10), percentile(lat, 0.25), percentile(lat, 0.50),
		percentile(lat, 0.75), percentile(lat, 0.90), percentile(lat, 0.99))
	fmt.Fprintf(os.Stderr, "perfbench: jobs/s by window %.4g\nperfbench: CPU ms/job by window %.4g\n", rate, cpu)
}

// windowRates splits a phase into n equal windows and returns, for each,
// the jobs completed per second and the process CPU milliseconds per
// job. A job counts in a window by the share of its run time inside it,
// so a window of a few long jobs is not rounded to whole ones.
func windowRates(p phase, n int) (rate, cpu []float64) {
	w := p.wall / time.Duration(n)
	for i := 0; i < n; i++ {
		a := p.t0.Add(time.Duration(i) * w)
		b := a.Add(w)
		var jobs float64
		for _, s := range p.samples {
			if s.err != nil || !s.end.After(s.begin) {
				continue
			}
			lo, hi := s.begin, s.end
			if a.After(lo) {
				lo = a
			}
			if b.Before(hi) {
				hi = b
			}
			if hi.After(lo) {
				jobs += float64(hi.Sub(lo)) / float64(s.end.Sub(s.begin))
			}
		}
		rate = append(rate, jobs/w.Seconds())
		cpu = append(cpu, ms(cpuAt(p.ticks, b)-cpuAt(p.ticks, a))/max(jobs, 1e-9))
	}
	return rate, cpu
}

// percentile is the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// mix is SplitMix64: it spreads a command-line seed over the workload
// seed space, so neighbouring seeds share no inputs.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// baseSeed maps the command-line seed to a positive workload seed with
// room above it for every seed a run derives.
func baseSeed(seed int64) int64 {
	return int64(mix(uint64(seed))%(1<<40)) + 1
}
