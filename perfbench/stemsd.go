package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"stems"
	"stems/internal/enc"
	"stems/internal/server"
	"stems/internal/service"
	"stems/internal/store"
)

const (
	// stemsdCallers is the closed loop's client count: one per core of
	// the 2-vCPU machine the benchmark was tuned on.
	stemsdCallers = 2
	// storeEntries is stemsd's default -store-entries.
	storeEntries = 4096

	// repeatSet is the working set of distinct runs, about twice the
	// memory tier's default bound (256), so hits split between memory and
	// disk. Its traces are short: result size does not depend on length.
	repeatSet      = 512
	repeatAccesses = 4096
	// repeatRuns is the runs per stemsd-repeat job, drawn from the set.
	repeatRuns    = 32
	repeatWarmups = 8
	// Of every repeatSampleEvery-th timed job, the runs drawn from the
	// recomputed sample of the set (every repeatSampleEvery-th member)
	// are byte-checked after the phase.
	repeatSampleEvery = 16
	// populateRuns is the runs per set-up job that computes the set.
	populateRuns = 64
)

// setKinds are the predictors of the working set: those of a
// Figure-10-style job.
var setKinds = []string{"none", "sms", "tms", "stems"}

// phaseIndex maps enc.PhaseNames to sample.phases slots.
var phaseIndex = map[string]int{"queue": 0, "resolve": 1, "simulate": 2, "encode": 3, "store": 4}

// stemsd is the stemsd-repeat workload. It drives an in-process daemon
// stack: the default service config, the HTTP server on loopback, a disk
// store in a directory under .bench_build, and two closed-loop
// stems.Clients calling Submit then Wait (SSE). Every job draws its runs
// from a working set the set-up computed, so every run is a cache hit.
type stemsd struct {
	seed  int64 // command-line seed
	wseed int64 // workload seed

	// The current build.
	builds  int
	dir     string
	st      *store.Store
	svc     *service.Service
	srv     *http.Server
	served  chan error
	clients [stemsdCallers]*stems.Client

	// The working set: specs (unlabelled), the canonical bytes the first
	// build's service computed for them, and those decoded.
	set        []stems.Spec
	setBytes   [][]byte
	setDecoded []stems.RunResult

	mu       sync.Mutex
	kept     []keptRun // delivered results kept for post-phase checks
	failures []string  // set-up check failures
}

// keptRun is one delivered result kept for verify.
type keptRun struct {
	k    int
	spec stems.Spec
	raw  []byte
}

func newStemsd(seed int64) *stemsd {
	s := &stemsd{seed: seed, wseed: baseSeed(seed)}
	for i := 0; i < repeatSet; i++ {
		s.set = append(s.set, stems.Spec{
			Predictor: setKinds[i%len(setKinds)],
			Workload:  kernelWorkloads[(i/len(setKinds))%len(kernelWorkloads)],
			Seed:      s.wseed + int64(i/(len(setKinds)*len(kernelWorkloads))),
			Accesses:  repeatAccesses,
		})
	}
	return s
}

func (s *stemsd) callers() int { return stemsdCallers }

// setup boots a fresh stack, computes the working set through it, and
// runs the warm-up jobs.
func (s *stemsd) setup(ctx context.Context) error {
	s.builds++
	s.dir = filepath.Join(scratchDir, fmt.Sprintf("stemsd-repeat-%d", s.builds))
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	st, err := store.Open(s.dir, storeEntries)
	if err != nil {
		return err
	}
	svc, err := service.New(service.Config{Store: st})
	if err != nil {
		st.Close() //nolint:errcheck // failed build: nothing written
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Drain()
		st.Close() //nolint:errcheck // failed build: nothing written
		return err
	}
	s.st, s.svc = st, svc
	s.srv = &http.Server{Handler: server.New(svc)}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	for i := range s.clients {
		s.clients[i] = stems.NewClient(url, nil)
	}

	start := time.Now()
	if err := s.populate(ctx); err != nil {
		return fmt.Errorf("computing the working set: %w", err)
	}
	w := st.Stats().WriteLatency
	fmt.Fprintf(os.Stderr, "perfbench: working set computed in %.2fs, %d store writes taking %.2fs\n",
		time.Since(start).Seconds(), w.Count, time.Duration(w.SumNanos).Seconds())
	var wg sync.WaitGroup
	for c := range stemsdCallers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := -repeatWarmups + c; k < 0; k += stemsdCallers {
				if smp := s.job(ctx, c, k); smp.err != nil {
					s.mu.Lock()
					s.failures = append(s.failures, fmt.Sprintf("warm-up job %d: %v", k, smp.err))
					s.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return nil
}

// populate computes the working set through the stack in
// populateRuns-run jobs, one caller per client. The first build's bytes
// become the expected results; later builds must reproduce them.
func (s *stemsd) populate(ctx context.Context) error {
	got := make([][]byte, len(s.set))
	errs := make([]error, stemsdCallers)
	var wg sync.WaitGroup
	for c := range stemsdCallers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := c * populateRuns; lo < len(s.set); lo += stemsdCallers * populateRuns {
				specs := s.set[lo:min(lo+populateRuns, len(s.set))]
				final, _, err := submitWait(ctx, s.clients[c], specs)
				if err != nil {
					errs[c] = err
					return
				}
				for i, raw := range final.Results {
					got[lo+i] = raw
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if s.setBytes == nil {
		s.setBytes = got
		s.setDecoded = make([]stems.RunResult, len(got))
		for i, raw := range got {
			if err := json.Unmarshal(raw, &s.setDecoded[i]); err != nil {
				return err
			}
		}
	} else if err := sameBytes(s.setBytes, got); err != nil {
		s.failures = append(s.failures, "working set differs between builds: "+err.Error())
	}
	return nil
}

// specs is job k's run list, drawn with the seed from the working set,
// and the set index of each run; warm-up jobs have k < 0.
func (s *stemsd) specs(k int) ([]stems.Spec, []int) {
	rng := rand.New(rand.NewPCG(uint64(s.wseed), uint64(int64(k))))
	out := make([]stems.Spec, repeatRuns)
	idx := make([]int, repeatRuns)
	for i := range out {
		idx[i] = rng.IntN(len(s.set))
		out[i] = s.set[idx[i]]
		out[i].Label = fmt.Sprintf("j%d.r%d", k, i)
	}
	return out, idx
}

// submitWait submits one job of specs and waits for its terminal status
// over SSE, failing unless it is done with one result per run. It also
// returns the Submit round trip.
func submitWait(ctx context.Context, c *stems.Client, specs []stems.Spec) (stems.JobStatus, time.Duration, error) {
	start := time.Now()
	st, err := c.Submit(ctx, stems.JobSpec{Runs: specs})
	submit := time.Since(start)
	if err != nil {
		return st, submit, err
	}
	final, err := c.Wait(ctx, st.ID)
	switch {
	case err != nil:
	case final.State != stems.JobDone:
		err = fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error)
	case len(final.Results) != len(specs):
		err = fmt.Errorf("job %s returned %d results for %d runs", final.ID, len(final.Results), len(specs))
	}
	return final, submit, err
}

func (s *stemsd) job(ctx context.Context, caller, k int) sample {
	specs, idx := s.specs(k)
	smp := sample{k: k}
	start := time.Now()
	final, submit, err := submitWait(ctx, s.clients[caller], specs)
	smp.submit = submit
	if err != nil {
		smp.err = err
		return smp
	}
	decodeStart := time.Now()
	smp.err = s.check(k, specs, idx, final.Results)
	smp.decode = time.Since(decodeStart)
	smp.latency = time.Since(start)
	for _, p := range final.Phases {
		if i, ok := phaseIndex[p.Phase]; ok {
			smp.phases[i] = time.Duration(p.Nanos)
		}
	}
	return smp
}

// check decodes every delivered result and checks its label and, label
// aside, the whole result against the working set's. It keeps the
// results verify recomputes.
func (s *stemsd) check(k int, specs []stems.Spec, idx []int, raws []json.RawMessage) error {
	var keep []keptRun
	for i, raw := range raws {
		var r stems.RunResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		if r.Label != specs[i].Label {
			return fmt.Errorf("run %d: label %q, want %q", i, r.Label, specs[i].Label)
		}
		r.Label = ""
		if r != s.setDecoded[idx[i]] {
			return fmt.Errorf("run %d: result %s differs from the working set's %s", i, raw, s.setBytes[idx[i]])
		}
		if k >= 0 && k%repeatSampleEvery == 0 && idx[i]%repeatSampleEvery == 0 {
			keep = append(keep, keptRun{k, specs[i], raw})
		}
	}
	if len(keep) > 0 {
		s.mu.Lock()
		s.kept = append(s.kept, keep...)
		s.mu.Unlock()
	}
	return nil
}

func (s *stemsd) snapshot(ctx context.Context) (counters, error) {
	m, err := s.clients[0].Metrics(ctx)
	if err != nil {
		return counters{}, err
	}
	c := counters{
		runsComputed: m.RunsComputed,
		cacheHits:    m.CacheHits,
		cacheMisses:  m.CacheMisses,
	}
	if m.Store != nil {
		c.storeHits = m.Store.Hits
		c.storeReads = latencySumOf(m.Store.ReadLatency)
	}
	return c, nil
}

func latencySumOf(l *enc.LatencyStats) latencySum {
	if l == nil {
		return latencySum{}
	}
	return latencySum{count: l.Count, sumUs: float64(l.Count) * l.MeanUs}
}

// verify byte-checks the kept results against in-process
// recomputations, checks the default-seed totals of the working set,
// and asserts on every phase that no run was computed.
func (s *stemsd) verify(ctx context.Context, phases []phase) ([]string, int) {
	failures := append([]string(nil), s.failures...)
	badJobs := make(map[int]bool)
	want := make(map[string][]byte) // recomputations by unlabelled spec
	var t totals
	for _, kr := range s.kept {
		bare := kr.spec
		bare.Label = ""
		key, err := stems.RunKey(bare)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		canon, ok := want[key]
		if !ok {
			if canon, err = recompute(ctx, bare); err != nil {
				failures = append(failures, err.Error())
				continue
			}
			want[key] = canon
		}
		exp := canon
		if kr.spec.Label != "" {
			var r stems.RunResult
			if err := json.Unmarshal(canon, &r); err != nil {
				failures = append(failures, err.Error())
				continue
			}
			r.Label = kr.spec.Label
			if exp, err = json.Marshal(r); err != nil {
				failures = append(failures, err.Error())
				continue
			}
		}
		if !bytes.Equal(exp, kr.raw) {
			failures = append(failures, fmt.Sprintf("job %d: delivered %s, recomputed %s", kr.k, kr.raw, exp))
			badJobs[kr.k] = true
		}
	}
	// The totals cover the working set every job draws from, so a
	// mismatch fails every job.
	for _, r := range s.setDecoded {
		t.add(r)
	}
	if f := checkTotals("stemsd-repeat", s.seed, t); f != "" {
		failures = append(failures, f)
		for _, p := range phases {
			for _, smp := range p.samples {
				if smp.err == nil {
					badJobs[smp.k] = true
				}
			}
		}
	}

	for i, p := range phases {
		if n := p.delta.runsComputed; n != 0 {
			failures = append(failures, fmt.Sprintf("phase %d computed %d runs; every run should be a cache hit", i, n))
		}
	}
	return failures, len(badJobs)
}

// probe derives the service, store, server and client layers' figures
// from the traced phases' spans and counters. Nothing is simulated or
// generated in the timed phase, so it times no sim or trace call.
//
// The uncovered share is a lower bound: a worker can start a job before
// the submit response reaches the caller, so spans may overlap, and each
// job's uncovered time is clamped at zero.
func (s *stemsd) probe(ctx context.Context, p phase, m map[string]float64) error {
	var (
		n                                     float64
		lat, submit, decode, spans, uncovered float64
		phaseSum                              [5]float64
	)
	for _, smp := range p.samples {
		if smp.err != nil {
			continue
		}
		n++
		var job float64
		for i, d := range smp.phases {
			phaseSum[i] += ms(d)
			job += ms(d)
		}
		lat += ms(smp.latency)
		submit += ms(smp.submit)
		decode += ms(smp.decode)
		spans += job
		uncovered += max(0, ms(smp.latency)-ms(smp.submit)-ms(smp.decode)-job)
	}
	if n == 0 {
		return errors.New("traced phases completed no job")
	}
	// A hit has no resolve, simulate or store phase.
	m["service.queue_ms"] = phaseSum[phaseIndex["queue"]] / n
	m["service.encode_ms"] = phaseSum[phaseIndex["encode"]] / n
	m["server.submit_ms"] = submit / n
	m["server.deliver_ms"] = (lat - spans) / n
	m["client.decode_ms"] = decode / n
	m["uncovered_pct"] = 100 * uncovered / lat

	c := p.delta
	hits, misses := float64(c.cacheHits), float64(c.cacheMisses)
	if hits+misses > 0 {
		m["service.cache_hit_ratio"] = hits / (hits + misses)
	}
	if hits > 0 {
		m["store.disk_hit_pct"] = 100 * float64(c.storeHits) / hits
	}
	m["store.get_us"] = meanUs(c.storeReads)
	return nil
}

func meanUs(l latencySum) float64 {
	if l.count == 0 {
		return 0
	}
	return l.sumUs / float64(l.count)
}

// close drains the current build's service, shuts its server down,
// and closes its store. The store's directory stays until the run ends
// (see scratchDir).
func (s *stemsd) close() {
	if s.svc == nil {
		return
	}
	s.svc.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx) //nolint:errcheck // drained: no job streams remain
	<-s.served
	s.st.Close() //nolint:errcheck // drained: no writers left
	s.svc, s.srv, s.st = nil, nil, nil
}
