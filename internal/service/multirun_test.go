package service

import (
	"encoding/json"
	"testing"

	"stems/internal/enc"
	"stems/internal/sim"
)

func seedRun(workload string, accesses int, seed int64, label string) enc.RunSpec {
	return enc.RunSpec{Predictor: "stems", Workload: workload, Accesses: accesses, Seed: seed, Label: label}
}

// oneRunJobs computes each spec as its own one-run job on a fresh
// daemon and returns the result bytes: the reference a multi-run job's
// results must match byte for byte.
func oneRunJobs(t *testing.T, specs []enc.RunSpec) []string {
	t.Helper()
	ref := mustNew(t, Config{Workers: 1, QueueBound: 8})
	defer ref.Drain()
	want := make([]string, len(specs))
	for i, spec := range specs {
		st := waitJob(t, mustSubmit(t, ref, enc.JobSpec{RunSpec: spec}))
		if st.State != enc.JobDone {
			t.Fatalf("reference run %d: state = %s (err %q)", i, st.State, st.Error)
		}
		want[i] = string(st.Results[0])
	}
	return want
}

// checkMultiRunJob submits specs as one job on a fresh daemon and
// checks it against one-run jobs: byte-identical results in job order,
// no cache hits (every run is computed here), progress that never goes
// backwards and ends complete, and per-run content addressing —
// resubmitting run again alone is a pure cache hit.
func checkMultiRunJob(t *testing.T, specs []enc.RunSpec, again int) {
	t.Helper()
	want := oneRunJobs(t, specs)

	svc := mustNew(t, Config{Workers: 1, QueueBound: 8})
	defer svc.Drain()
	j := mustSubmit(t, svc, enc.JobSpec{Runs: specs})
	watchProgress(t, j)
	st := waitJob(t, j)
	if st.State != enc.JobDone {
		t.Fatalf("multi-run job: state = %s (err %q)", st.State, st.Error)
	}
	if len(st.Results) != len(specs) {
		t.Fatalf("got %d results, want %d", len(st.Results), len(specs))
	}
	for i := range specs {
		if string(st.Results[i]) != want[i] {
			t.Errorf("run %d (%s seed %d): multi-run job result differs from one-run job:\n job:     %s\n one-run: %s",
				i, specs[i].Predictor, specs[i].Seed, st.Results[i], want[i])
		}
	}
	if st.Progress.CacheHits != 0 {
		t.Errorf("multi-run job reported %d cache hits, want 0 (every run computed here)", st.Progress.CacheHits)
	}
	if st.Progress.AccessesDone != st.Progress.AccessesTotal {
		t.Errorf("progress = %d/%d, want complete", st.Progress.AccessesDone, st.Progress.AccessesTotal)
	}

	st2 := waitJob(t, mustSubmit(t, svc, enc.JobSpec{RunSpec: specs[again]}))
	if st2.State != enc.JobDone {
		t.Fatalf("resubmit: state = %s (err %q)", st2.State, st2.Error)
	}
	if st2.Progress.CacheHits != 1 {
		t.Errorf("resubmit of run %d alone: cache hits = %d, want 1", again, st2.Progress.CacheHits)
	}
	if string(st2.Results[0]) != want[again] {
		t.Errorf("cached run %d differs from its one-run job", again)
	}
}

// watchProgress follows j until it finishes and fails the test if its
// AccessesDone ever decreases.
func watchProgress(t *testing.T, j *Job) {
	t.Helper()
	ch, cancel := j.Subscribe()
	defer cancel()
	var last uint64
	for {
		select {
		case <-ch:
		case <-j.Done():
			return
		}
		if done := j.Status().Progress.AccessesDone; done < last {
			t.Errorf("progress went backwards: %d after %d", done, last)
		} else {
			last = done
		}
	}
}

// TestMultiRunJobSeedsByteIdentical: a job whose runs differ only by
// seed computes its runs concurrently, and every result is
// byte-identical to the same runs submitted as one-run jobs.
func TestMultiRunJobSeedsByteIdentical(t *testing.T) {
	checkMultiRunJob(t, []enc.RunSpec{
		seedRun("em3d", 20_000, 1, ""),
		seedRun("em3d", 20_000, 7920, ""),
		seedRun("em3d", 20_000, 15839, ""),
	}, 1)
}

// TestMultiRunJobPredictorsByteIdentical: a job whose runs replay one
// trace with different predictors and knobs shares that trace through
// the arena, and every result is byte-identical to one-run jobs.
func TestMultiRunJobPredictorsByteIdentical(t *testing.T) {
	checkMultiRunJob(t, []enc.RunSpec{
		{Predictor: "stride", Workload: "em3d", Accesses: 20_000, Seed: 1},
		{Predictor: "sms", Workload: "em3d", Accesses: 20_000, Seed: 1},
		{Predictor: "tms", Workload: "em3d", Accesses: 20_000, Seed: 1},
		{Predictor: "stems", Workload: "em3d", Accesses: 20_000, Seed: 1},
		{Predictor: "stems", Workload: "em3d", Accesses: 20_000, Seed: 1,
			Knobs: map[string]sim.Value{"stems.rmob_entries": sim.IntValue(4096)}},
	}, 2)
}

// checkLabels requires the job's results to carry want's labels, in
// order.
func checkLabels(t *testing.T, st enc.JobStatus, want []string) {
	t.Helper()
	if len(st.Results) != len(want) {
		t.Fatalf("got %d results, want %d", len(st.Results), len(want))
	}
	for i := range want {
		var res struct {
			Label string `json:"label"`
		}
		if err := json.Unmarshal(st.Results[i], &res); err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if res.Label != want[i] {
			t.Errorf("result %d: label = %q, want %q", i, res.Label, want[i])
		}
	}
}

// TestMultiRunJobMixedRuns: a job interleaving predictors, seeds and a
// duplicate run returns results in submission order, each labelled, and
// the duplicate is served by the cache or its twin's flight.
func TestMultiRunJobMixedRuns(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, QueueBound: 8})
	defer svc.Drain()

	st := waitJob(t, mustSubmit(t, svc, enc.JobSpec{Runs: []enc.RunSpec{
		seedRun("em3d", 20_000, 1, "a"),
		seedRun("em3d", 20_000, 7920, "b"),
		{Predictor: "sms", Workload: "em3d", Accesses: 20_000, Seed: 1, Label: "c"},
		seedRun("em3d", 20_000, 1, "d"), // duplicate of run 0: cache hit
	}}))
	if st.State != enc.JobDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}
	checkLabels(t, st, []string{"a", "b", "c", "d"})
	if st.Progress.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1 (the duplicate run)", st.Progress.CacheHits)
	}
}

// TestMultiRunJobOrder: runs over different traces finish out of order
// (a short DB2 run beside longer em3d runs), yet results arrive in
// submission order with the right labels.
func TestMultiRunJobOrder(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, QueueBound: 8})
	defer svc.Drain()

	st := waitJob(t, mustSubmit(t, svc, enc.JobSpec{Runs: []enc.RunSpec{
		seedRun("em3d", 20_000, 1, "a"),
		{Predictor: "stride", Workload: "DB2", Accesses: 2_000, Seed: 1, Label: "b"},
		{Predictor: "sms", Workload: "em3d", Accesses: 20_000, Seed: 1, Label: "c"},
		seedRun("em3d", 20_000, 7920, "d"),
	}}))
	if st.State != enc.JobDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}
	checkLabels(t, st, []string{"a", "b", "c", "d"})
	if st.Progress.RunsDone != 4 || st.Progress.AccessesDone != st.Progress.AccessesTotal {
		t.Errorf("progress = %+v, want 4 runs and every access done", st.Progress)
	}
}
