package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"stems"
)

// kernelAccesses is the sweep-kernel trace length: long enough that
// replay dwarfs machine build, short enough that a 10-second phase
// completes well over minJobs sweeps.
const kernelAccesses = 40_000

// kernelWorkloads drive different predictor paths: DB2 is OLTP with
// pointer chases, em3d is scientific with long streams.
var kernelWorkloads = []string{"DB2", "em3d"}

// kernelKinds is every registered predictor kind. The list is fixed, not
// read from the registry, so a job keeps its shape and the ledger its
// metric names when a predictor is registered.
var kernelKinds = []string{"none", "stride", "sms", "tms", "stems", "naive-hybrid", "epoch"}

// kernelWarmups is how many sweeps each set-up runs before timing.
const kernelWarmups = 3

// kernel is the sweep-kernel workload: one caller, each job one
// in-process stems.Sweep over kernelKinds × kernelWorkloads at the
// library's default parallelism. Set-up generates the two traces, one
// per workload on the workload seed, into a shared Arena, so all timed
// host time is replay. The cells of a workload share its trace, which is
// the grouping Sweep fuses by default: a job is two lanes, each
// replaying one trace through seven machines.
type kernel struct {
	seed  int64 // command-line seed
	wseed int64 // workload seed
	specs []stems.Spec

	arena *stems.Arena
	grid  []*stems.Runner

	ref      [][]byte       // encoded results of the first warm-up sweep
	refRes   []stems.Result // the same, decoded
	genNs    []float64      // trace generation ns/access, per set-up
	accesses atomic.Uint64  // accesses replayed by successful timed jobs
	failures []string       // set-up check failures
}

func newKernel(seed int64) *kernel {
	k := &kernel{seed: seed, wseed: baseSeed(seed)}
	for _, wl := range kernelWorkloads {
		for _, p := range kernelKinds {
			k.specs = append(k.specs, stems.Spec{Predictor: p, Workload: wl, Seed: k.wseed, Accesses: kernelAccesses})
		}
	}
	return k
}

func (k *kernel) callers() int { return 1 }

func (k *kernel) setup(ctx context.Context) error {
	k.arena = stems.NewArena()
	var gen time.Duration
	var genAcc int
	for _, spec := range k.specs {
		wl, err := stems.WorkloadByName(spec.Workload)
		if err != nil {
			return err
		}
		k.arena.Get(spec.Workload, spec.Seed, kernelAccesses, func() []stems.Access {
			start := time.Now()
			accs := wl.Generate(spec.Seed, kernelAccesses)
			gen += time.Since(start)
			genAcc += len(accs)
			return accs
		})
	}
	k.genNs = append(k.genNs, float64(gen)/float64(max(genAcc, 1)))
	k.grid = k.grid[:0]
	for _, spec := range k.specs {
		r, err := stems.FromSpec(spec, stems.WithSharedTrace(k.arena))
		if err != nil {
			return err
		}
		k.grid = append(k.grid, r)
	}
	// Warm-up sweeps. The run's first is kept as the reference every
	// later sweep must reproduce byte for byte (verify checks it against
	// a fresh recomputation).
	for i := 0; i < kernelWarmups; i++ {
		res, err := stems.Sweep(ctx, k.grid)
		if err != nil {
			return fmt.Errorf("warm-up sweep: %w", err)
		}
		encoded, err := encodeResults(res)
		if err != nil {
			return err
		}
		if k.ref == nil {
			k.ref, k.refRes = encoded, res
		} else if err := sameBytes(k.ref, encoded); err != nil {
			k.failures = append(k.failures, "warm-up sweep differs from the first: "+err.Error())
		}
	}
	return nil
}

func (k *kernel) job(ctx context.Context, _ int, n int) sample {
	start := time.Now()
	res, err := stems.Sweep(ctx, k.grid)
	if err == nil {
		var encoded [][]byte
		if encoded, err = encodeResults(res); err == nil {
			err = sameBytes(k.ref, encoded)
		}
	}
	s := sample{k: n, latency: time.Since(start), err: err}
	if err == nil {
		k.accesses.Add(uint64(len(k.specs) * kernelAccesses))
	}
	return s
}

func (k *kernel) snapshot(context.Context) (counters, error) {
	return counters{
		traceGenerations: k.arena.Stats().Generations,
		accesses:         k.accesses.Load(),
	}, nil
}

// verify recomputes every cell with a fresh stems.FromSpec(spec).Run
// (no shared arena) and compares its encoding with the reference every
// timed sweep matched; checks the default-seed totals; and asserts that
// no trace was generated in a timed phase.
//
// Every timed sweep returned the reference's bytes, so a reference that
// fails a check fails every timed job.
func (k *kernel) verify(ctx context.Context, phases []phase) ([]string, int) {
	failures := append([]string(nil), k.failures...)
	refOK := true
	for i, spec := range k.specs {
		want, err := recompute(ctx, spec)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		if !bytes.Equal(want, k.ref[i]) {
			failures = append(failures, fmt.Sprintf("%s/%s: sweep result %s, recomputation %s", spec.Predictor, spec.Workload, k.ref[i], want))
			refOK = false
		}
	}
	var t totals
	for _, r := range k.refRes {
		t.add(stems.EncodeResult("", r))
	}
	if f := checkTotals("sweep-kernel", k.seed, t); f != "" {
		failures = append(failures, f)
		refOK = false
	}
	bad := 0
	for i, p := range phases {
		if g := p.delta.traceGenerations; g != 0 {
			failures = append(failures, fmt.Sprintf("phase %d generated %d traces; set-up should have generated them all", i, g))
		}
		for _, smp := range p.samples {
			if !refOK && smp.err == nil {
				bad++
			}
		}
	}
	return failures, bad
}

// probe times the benchmark's own calls into the sim layer: each cell's
// Runner.Run over the shared arena, and a machine build.
func (k *kernel) probe(ctx context.Context, _ phase, m map[string]float64) error {
	if err := probeKinds(ctx, k.arena, k.specs, m); err != nil {
		return err
	}
	if err := probeBuild(ctx, k.arena, k.wseed, m); err != nil {
		return err
	}
	m["trace.gen_ns_per_access"] = median(k.genNs)
	return nil
}

func (k *kernel) close() {
	k.arena, k.grid = nil, nil
}

// encodeResults is the canonical wire encoding of each result, the bytes
// stemsd would store for it.
func encodeResults(res []stems.Result) ([][]byte, error) {
	out := make([][]byte, len(res))
	for i, r := range res {
		b, err := json.Marshal(stems.EncodeResult("", r))
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func sameBytes(want, got [][]byte) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			return fmt.Errorf("result %d is %s, want %s", i, got[i], want[i])
		}
	}
	return nil
}

// recompute runs spec in-process on a fresh trace and returns its
// encoding under spec's label.
func recompute(ctx context.Context, spec stems.Spec) ([]byte, error) {
	label := spec.Label
	spec.Label = ""
	r, err := stems.FromSpec(spec)
	if err != nil {
		return nil, err
	}
	res, err := r.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("recomputing %s/%s seed %d: %w", spec.Predictor, spec.Workload, spec.Seed, err)
	}
	return json.Marshal(stems.EncodeResult(label, res))
}

// probeReps is how many times a probe repeats each timed call; it
// reports the median.
const probeReps = 3

// probeKinds times Runner.Run for each spec over arena (the trace
// generated beforehand, untimed) and reports sim.<kind>.ns_per_access:
// the summed median run time of that kind's specs over their accesses.
func probeKinds(ctx context.Context, arena *stems.Arena, specs []stems.Spec, m map[string]float64) error {
	ns := make(map[string]float64)
	acc := make(map[string]float64)
	for _, spec := range specs {
		r, err := stems.FromSpec(spec, stems.WithSharedTrace(arena))
		if err != nil {
			return err
		}
		if _, err := r.Run(ctx); err != nil { // resolves the trace
			return err
		}
		times := make([]float64, probeReps)
		for i := range times {
			start := time.Now()
			if _, err := r.Run(ctx); err != nil {
				return err
			}
			times[i] = float64(time.Since(start))
		}
		ns[spec.Predictor] += median(times)
		acc[spec.Predictor] += float64(spec.Accesses)
	}
	for p := range ns {
		m["sim."+p+".ns_per_access"] = ns[p] / acc[p]
	}
	return nil
}

// probeBuild reports sim.build_ms: the median time of a Runner.Run over
// a one-block DB2 trace, averaged over kernelKinds — a run that is
// almost all machine construction.
func probeBuild(ctx context.Context, arena *stems.Arena, seed int64, m map[string]float64) error {
	var sum float64
	for _, p := range kernelKinds {
		spec := stems.Spec{Predictor: p, Workload: "DB2", Seed: seed, Accesses: blockAccesses}
		r, err := stems.FromSpec(spec, stems.WithSharedTrace(arena))
		if err != nil {
			return err
		}
		if _, err := r.Run(ctx); err != nil {
			return err
		}
		times := make([]float64, 5)
		for i := range times {
			start := time.Now()
			if _, err := r.Run(ctx); err != nil {
				return err
			}
			times[i] = ms(time.Since(start))
		}
		sum += median(times)
	}
	m["sim.build_ms"] = sum / float64(len(kernelKinds))
	return nil
}

// blockAccesses is one trace block (trace.BlockCap).
const blockAccesses = 4096
