package service

import (
	"bytes"
	"strings"
	"testing"

	"stems"
	"stems/internal/enc"
	"stems/internal/store"
)

func mustStore(t testing.TB, dir string, bound int) *store.Store {
	t.Helper()
	st, err := store.Open(dir, bound)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRestartServesFromDisk is the durability acceptance check: a
// service reopened on the same store directory must answer a previously
// computed job from disk — zero runs computed, byte-identical result.
func TestRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	spec := smallRun("em3d", 30_000)

	// First life: compute and persist.
	st1 := mustStore(t, dir, 64)
	svc1 := mustNew(t, Config{Workers: 1, QueueBound: 8, Store: st1})
	j1, err := svc1.Submit(enc.JobSpec{RunSpec: spec})
	if err != nil {
		t.Fatal(err)
	}
	first := waitJob(t, j1)
	if first.State != enc.JobDone {
		t.Fatalf("first life job ended %s: %s", first.State, first.Error)
	}
	if got := svc1.Metrics().RunsComputed; got != 1 {
		t.Fatalf("first life RunsComputed = %d, want 1", got)
	}
	svc1.Drain()
	st1.Close()

	// Second life: cold memory, warm disk.
	st2 := mustStore(t, dir, 64)
	svc2 := mustNew(t, Config{Workers: 1, QueueBound: 8, Store: st2})
	defer svc2.Drain()
	j2, err := svc2.Submit(enc.JobSpec{RunSpec: spec})
	if err != nil {
		t.Fatal(err)
	}
	second := waitJob(t, j2)
	if second.State != enc.JobDone {
		t.Fatalf("second life job ended %s: %s", second.State, second.Error)
	}

	m := svc2.Metrics()
	if m.RunsComputed != 0 {
		t.Fatalf("restarted daemon recomputed: RunsComputed = %d, want 0", m.RunsComputed)
	}
	if m.CacheHits != 1 {
		t.Fatalf("restarted daemon CacheHits = %d, want 1", m.CacheHits)
	}
	if m.Store == nil || m.Store.Hits != 1 {
		t.Fatalf("store metrics = %+v, want 1 disk hit", m.Store)
	}
	if second.Progress.CacheHits != 1 {
		t.Fatalf("job-level cache hits = %d, want 1", second.Progress.CacheHits)
	}
	if !bytes.Equal(first.Results[0], second.Results[0]) {
		t.Fatalf("restart result bytes differ:\n first=%s\nsecond=%s", first.Results[0], second.Results[0])
	}
}

// TestStoreWriteThrough checks the two-tier invariant on a live (never
// restarted) service: every computed result lands on disk under its
// stems.RunKey, byte-identical to the job's canonical result document.
func TestStoreWriteThrough(t *testing.T) {
	st := mustStore(t, t.TempDir(), 64)
	svc := mustNew(t, Config{Workers: 2, QueueBound: 8, Store: st})
	defer svc.Drain()

	specs := []enc.RunSpec{
		smallRun("em3d", 20_000),
		{Predictor: "sms", Workload: "Apache", Accesses: 20_000},
		{Predictor: "stride", Workload: "ocean", Accesses: 20_000, Seed: 7},
	}
	for _, spec := range specs {
		j, err := svc.Submit(enc.JobSpec{RunSpec: spec})
		if err != nil {
			t.Fatal(err)
		}
		final := waitJob(t, j)
		if final.State != enc.JobDone {
			t.Fatalf("%s/%s ended %s: %s", spec.Predictor, spec.Workload, final.State, final.Error)
		}
		key, err := stems.RunKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		onDisk, ok := st.Get(key)
		if !ok {
			t.Fatalf("%s/%s not written through to the store", spec.Predictor, spec.Workload)
		}
		if !bytes.Equal(onDisk, final.Results[0]) {
			t.Fatalf("%s/%s store bytes != result bytes:\nstore=%s\n  job=%s",
				spec.Predictor, spec.Workload, onDisk, final.Results[0])
		}
	}
	if got := st.Len(); got != len(specs) {
		t.Fatalf("store holds %d entries, want %d", got, len(specs))
	}
}

// TestStorePutErrorCounted: a disk tier that refuses writes degrades the
// daemon to memory-only. The job still succeeds, its result is served
// from the memory tier on resubmit, and the failed write is counted in
// the store stats and the Prometheus exposition.
func TestStorePutErrorCounted(t *testing.T) {
	st := mustStore(t, t.TempDir(), 64)
	svc := mustNew(t, Config{Workers: 1, QueueBound: 8, Store: st})
	defer svc.Drain()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	spec := enc.JobSpec{RunSpec: smallRun("em3d", 5_000)}
	first := waitJob(t, mustSubmit(t, svc, spec))
	if first.State != enc.JobDone {
		t.Fatalf("job with a failing store ended %s: %s", first.State, first.Error)
	}
	if got := st.Stats().PutErrors; got != 1 {
		t.Fatalf("store put errors = %d, want 1", got)
	}
	var b bytes.Buffer
	svc.Obs().WritePrometheus(&b)
	if want := "stemsd_store_put_errors_total 1"; !strings.Contains(b.String(), want) {
		t.Errorf("prometheus exposition missing %q", want)
	}

	again := waitJob(t, mustSubmit(t, svc, spec))
	if again.State != enc.JobDone || again.Progress.CacheHits != 1 {
		t.Fatalf("resubmit: state %s, cache hits %d; want done from the memory tier", again.State, again.Progress.CacheHits)
	}
	if !bytes.Equal(again.Results[0], first.Results[0]) {
		t.Fatal("memory-tier result differs from the computed one")
	}
}

// TestClusterRoutingMetrics checks the /metrics shard-routing section: a
// daemon given a peer list buckets submitted runs by their owners and
// counts the ones it does not own as misrouted.
func TestClusterRoutingMetrics(t *testing.T) {
	peers := []string{"http://node-a:8091", "http://node-b:8091", "http://node-c:8091"}
	svc := mustNew(t, Config{Workers: 1, QueueBound: 32, Peers: peers, Self: peers[0]})
	defer svc.Drain()

	spec := enc.JobSpec{Runs: []enc.RunSpec{
		smallRun("em3d", 1_000),
		{Predictor: "stems", Workload: "em3d", Accesses: 1_000, Seed: 2},
		{Predictor: "stems", Workload: "em3d", Accesses: 1_000, Seed: 3},
		{Predictor: "stems", Workload: "em3d", Accesses: 1_000, Seed: 4},
	}}
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)

	m := svc.Metrics()
	if m.Cluster == nil {
		t.Fatal("no cluster metrics despite Peers configured")
	}
	if m.Cluster.Self != peers[0] {
		t.Fatalf("Self = %q, want %q", m.Cluster.Self, peers[0])
	}
	var total, owned uint64
	for i, n := range m.Cluster.PeerRuns {
		total += n
		if m.Cluster.Peers[i] == peers[0] {
			owned = n
		}
	}
	if total != 4 {
		t.Fatalf("PeerRuns sum = %d, want 4 (%v)", total, m.Cluster.PeerRuns)
	}
	if m.Cluster.MisroutedRuns != total-owned {
		t.Fatalf("MisroutedRuns = %d, want %d", m.Cluster.MisroutedRuns, total-owned)
	}

	if _, err := New(Config{Peers: peers, Self: "http://unknown:1"}); err == nil {
		t.Fatal("Self outside Peers accepted")
	}
	if _, err := New(Config{Peers: []string{"http://a:1", "http://a:1"}}); err == nil {
		t.Fatal("duplicate peers accepted")
	}
}

// FuzzStoreByteIdentity fuzzes the cross-tier contract: for arbitrary
// (valid) specs, the bytes the disk store persists are exactly the bytes
// the service serves — no re-marshaling drift anywhere between the
// worker, the memory cache, the store, and the job status.
func FuzzStoreByteIdentity(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1), uint16(2_000))
	f.Add(uint8(3), uint8(4), int64(9), uint16(5_000))
	f.Add(uint8(200), uint8(200), int64(123456), uint16(60_000))

	predictors := stems.Predictors()
	workloads := stems.WorkloadNames()

	f.Fuzz(func(t *testing.T, predIdx, wlIdx uint8, seed int64, accesses uint16) {
		spec := enc.RunSpec{
			Predictor: predictors[int(predIdx)%len(predictors)],
			Workload:  workloads[int(wlIdx)%len(workloads)],
			Seed:      seed,
			// Keep runs tiny: the property under test is byte plumbing,
			// not simulation scale.
			Accesses: 500 + int(accesses)%4_000,
		}
		if spec.Seed < 0 {
			spec.Seed = -spec.Seed
		}
		st := mustStore(t, t.TempDir(), 16)
		svc := mustNew(t, Config{Workers: 1, QueueBound: 4, Store: st})
		defer svc.Drain()

		j, err := svc.Submit(enc.JobSpec{RunSpec: spec})
		if err != nil {
			t.Fatal(err)
		}
		final := waitJob(t, j)
		if final.State != enc.JobDone {
			t.Fatalf("job ended %s: %s", final.State, final.Error)
		}
		key, err := stems.RunKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		onDisk, ok := st.Get(key)
		if !ok {
			t.Fatal("computed result not in store")
		}
		if !bytes.Equal(onDisk, final.Results[0]) {
			t.Fatalf("store bytes != served bytes for %+v:\nstore=%s\n  job=%s", spec, onDisk, final.Results[0])
		}
	})
}
