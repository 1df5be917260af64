package coord

import (
	"bytes"
	"context"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"upim/internal/artifact"
	"upim/internal/explore"
	"upim/internal/prim"
)

// crashSpace mirrors the explore package's resume-test space: three axes
// over two benchmarks at tiny scale = 16 points, enough shards to spread
// over four workers yet quick to simulate.
func crashSpace() *explore.Space {
	s := explore.NewSpace([]string{"VA", "BS"},
		explore.Tasklets(1, 4), explore.LinkScale(1, 2), explore.ILP("base", "D"))
	s.Scale = prim.ScaleTiny
	return s
}

// writeArtifacts renders the full artifact set — summary, both Pareto
// frontiers, best configs, energy, plus any extra tables such as a tiered
// run's triage — so byte-identity covers every table the CLI can emit.
func writeArtifacts(t *testing.T, x *explore.Exploration, dir string, extra ...*artifact.Table) {
	t.Helper()
	energyPareto := x.ParetoTable(explore.GoalEnergy(nil), explore.GoalCost())
	energyPareto.Key = "pathfind-pareto-energy"
	tables := append([]*artifact.Table{
		x.SummaryTable(), x.ParetoTable(), energyPareto, x.BestTable(3), x.EnergyTable(nil),
	}, extra...)
	if err := artifact.WriteReport(dir, tables); err != nil {
		t.Fatal(err)
	}
}

// compareDirs asserts two report directories hold byte-identical files.
func compareDirs(t *testing.T, refDir, gotDir string) {
	t.Helper()
	var refFiles []string
	err := filepath.WalkDir(refDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			rel, _ := filepath.Rel(refDir, path)
			refFiles = append(refFiles, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(refFiles) == 0 {
		t.Fatal("reference report is empty")
	}
	for _, rel := range refFiles {
		want, err := os.ReadFile(filepath.Join(refDir, rel))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(gotDir, rel))
		if err != nil {
			t.Fatalf("coordinated report is missing %s: %v", rel, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between the single-process and coordinated runs", rel)
		}
	}
}

// referenceArtifacts runs the single-process exploration on a fresh store
// and renders its artifacts — the oracle every coordinated run must match
// byte for byte.
func referenceArtifacts(t *testing.T, ctx context.Context, space *explore.Space) string {
	t.Helper()
	refStore, err := explore.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := explore.New(explore.Options{Parallelism: 4, Store: refStore}).Explore(ctx, space)
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	writeArtifacts(t, ref, refDir)
	return refDir
}

// TestCrashResumeByteIdentical is the fault-injection acceptance test: four
// coordinated workers explore the space, every worker is killed once
// mid-shard, one store write is corrupted — and the run still produces
// byte-identical artifacts to a single-process exploration, with zero
// duplicate simulations beyond the one the injected corruption forces.
func TestCrashResumeByteIdentical(t *testing.T) {
	ctx := context.Background()
	space := crashSpace()
	pts, err := space.Points()
	if err != nil {
		t.Fatal(err)
	}
	total := len(pts)
	if total != 16 {
		t.Fatalf("space has %d points, want 16", total)
	}
	refDir := referenceArtifacts(t, ctx, space)

	store, err := explore.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	var progress []Progress
	var progressMu sync.Mutex
	x, _, err := Run(ctx, space, Options{
		Workers:   4,
		ShardSize: 2, // 8 shards: every worker leases one before any finishes
		TTL:       150 * time.Millisecond,
		Heartbeat: 30 * time.Millisecond,
		Poll:      5 * time.Millisecond,
		Store:     store,
		Faults: &FaultPlan{
			// Every worker dies after its first point — mid-shard, since
			// shards hold two.
			KillAfterPoints: map[int]int{0: 1, 1: 1, 2: 1, 3: 1},
			// The third successful store write is torn after landing; the
			// damage must be detected and repaired, not trusted.
			CorruptPuts: []int{3},
		},
		Events: &events,
		OnProgress: func(p Progress) {
			progressMu.Lock()
			progress = append(progress, p)
			progressMu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("coordinated run: %v", err)
	}
	if len(x.Outcomes) != total || x.Failed != 0 {
		t.Fatalf("coordinated run: %d outcomes, %d failed", len(x.Outcomes), x.Failed)
	}

	// The artifacts are byte-identical to the single-process oracle.
	gotDir := t.TempDir()
	writeArtifacts(t, x, gotDir)
	compareDirs(t, refDir, gotDir)

	// The injected corruption was detected (counted) — not silently trusted.
	if store.Stats().Corrupt < 1 {
		t.Errorf("store corrupt counter = %d, want >= 1 (the torn write must be detected)", store.Stats().Corrupt)
	}

	evs, err := ParseEvents(&events)
	if err != nil {
		t.Fatal(err)
	}

	// Every worker was killed exactly once and respawned.
	kills := map[string]int{}
	respawns := map[string]bool{}
	for _, e := range evs {
		switch e.Type {
		case EventWorkerKill:
			kills[e.Worker]++
		case EventWorkerStart:
			if strings.Contains(e.Worker, ".r") {
				respawns[strings.SplitN(e.Worker, ".", 2)[0]] = true
			}
		}
	}
	for _, w := range []string{"w0", "w1", "w2", "w3"} {
		if kills[w] != 1 {
			t.Errorf("worker %s killed %d times, want exactly once", w, kills[w])
		}
		if !respawns[w] {
			t.Errorf("worker %s was never respawned after its kill", w)
		}
	}

	// Zero duplicate simulations: every key simulates exactly once, except
	// the corrupted key, which must re-simulate exactly once more.
	simsByKey := map[string]int{}
	corrupted := map[string]bool{}
	for _, e := range evs {
		switch e.Type {
		case EventPointSimulated, EventMergeSimulated:
			simsByKey[e.Key]++
		case EventPutCorrupt:
			corrupted[e.Key] = true
		}
	}
	if len(corrupted) != 1 {
		t.Fatalf("corrupted %d keys, want exactly 1", len(corrupted))
	}
	if len(simsByKey) != total {
		t.Errorf("events cover %d distinct simulated keys, want %d", len(simsByKey), total)
	}
	for key, n := range simsByKey {
		want := 1
		if corrupted[key] {
			want = 2
		}
		if n != want {
			t.Errorf("key %.12s... simulated %d times, want %d (corrupted: %v)", key, n, want, corrupted[key])
		}
	}

	// Progress streamed and ended on a complete, all-done snapshot.
	progressMu.Lock()
	defer progressMu.Unlock()
	if len(progress) == 0 {
		t.Fatal("no progress snapshots streamed")
	}
	last := progress[len(progress)-1]
	if last.Done != total || !last.Coordination.AllDone || last.Corrupt < 1 {
		t.Errorf("final progress = %+v, want all %d points done with the corruption surfaced", last, total)
	}
}

// TestCoordinatedTieredByteIdentical pins the two-tier coordinated path:
// workers resolve out-of-band points at estimate fidelity from the shared
// band plan and simulate the band, leaving the merge nothing to do, and the
// artifacts — the triage table included — still match a single-process
// ExploreTiered.
func TestCoordinatedTieredByteIdentical(t *testing.T) {
	ctx := context.Background()
	space := crashSpace()
	topts := explore.TieredOptions{Band: 0.25}

	refStore, err := explore.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, refTri, err := explore.New(explore.Options{Parallelism: 4, Store: refStore}).ExploreTiered(ctx, space, topts)
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	writeArtifacts(t, ref, refDir, ref.TriageTable(refTri))

	store, err := explore.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	x, tri, err := Run(ctx, space, Options{
		Workers:   3,
		ShardSize: 2,
		Store:     store,
		Tiered:    &topts,
		Events:    &events,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tri == nil || tri.Band != refTri.Band || tri.EstimateOnly != refTri.EstimateOnly {
		t.Fatalf("coordinated triage %+v, reference %+v", tri, refTri)
	}
	// The workers did the work: the merge finds the band in the store and
	// re-resolves the rest from the plan's estimates.
	if x.Simulated != 0 || x.Hits != tri.Band || x.Estimated != tri.EstimateOnly {
		t.Errorf("merge simulated %d, hit %d, estimated %d; want 0, %d, %d",
			x.Simulated, x.Hits, x.Estimated, tri.Band, tri.EstimateOnly)
	}
	evs, err := ParseEvents(&events)
	if err != nil {
		t.Fatal(err)
	}
	n := map[string]int{}
	for _, e := range evs {
		n[e.Type]++
	}
	if n[EventPointEstimated] != tri.EstimateOnly || n[EventPointSimulated] != tri.Band || n[EventMergeSimulated] != 0 {
		t.Errorf("events: %d point_estimated, %d point_simulated, %d merge_simulated; want %d, %d, 0",
			n[EventPointEstimated], n[EventPointSimulated], n[EventMergeSimulated], tri.EstimateOnly, tri.Band)
	}
	gotDir := t.TempDir()
	writeArtifacts(t, x, gotDir, x.TriageTable(tri))
	compareDirs(t, refDir, gotDir)
}

// TestHTTPWorkersByteIdentical runs the full multi-process topology
// in-process: a served coordinator + store on one address, remote workers
// speaking the lease protocol and the HTTP store, and a final merge over the
// local store — still byte-identical to the single-process oracle.
func TestHTTPWorkersByteIdentical(t *testing.T) {
	ctx := context.Background()
	space := crashSpace()
	refDir := referenceArtifacts(t, ctx, space)

	store, err := explore.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := space.Points()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SpecFor(space, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(len(pts), CoordinatorOptions{ShardSize: 3, TTL: 5 * time.Second})
	mux := http.NewServeMux()
	NewServer(c, spec).Register(mux)
	ss := explore.NewStoreServer(store)
	mux.Handle("/v1/exact/", ss)
	mux.Handle("/v1/estimate/", ss)
	mux.Handle("/v1/count", ss)
	mux.Handle("/v1/stats", ss)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	copts := ClientOptions{Timeout: 10 * time.Second, Backoff: 5 * time.Millisecond}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = Work(ctx, WorkOptions{
				Connect: srv.URL,
				Name:    []string{"remote0", "remote1"}[i],
				Poll:    5 * time.Millisecond,
				Client:  copts,
			})
		}(i)
	}
	wg.Wait()
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("remote worker %d: %v", i, werr)
		}
	}
	if !c.Done() {
		t.Fatal("coordinator not done after both workers returned")
	}

	// The merge over the worker-populated store: all hits, no simulation.
	x, err := explore.New(explore.Options{Store: store}).Explore(ctx, space)
	if err != nil {
		t.Fatal(err)
	}
	if x.Hits != len(pts) || x.Simulated != 0 {
		t.Fatalf("merge: %d hits, %d simulated; remote workers should have filled the store", x.Hits, x.Simulated)
	}
	gotDir := t.TempDir()
	writeArtifacts(t, x, gotDir)
	compareDirs(t, refDir, gotDir)
}

// TestSpaceSpecRoundTrip pins the wire spec: a served space reconstructs to
// the same deterministic point enumeration, and constrained spaces are
// refused rather than silently mis-sharded.
func TestSpaceSpecRoundTrip(t *testing.T) {
	space := crashSpace()
	spec, err := SpecFor(space, 42)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Watchdog != 42 {
		t.Fatalf("spec watchdog = %d", spec.Watchdog)
	}
	back, err := spec.Space()
	if err != nil {
		t.Fatal(err)
	}
	want, err := space.Points()
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round-tripped space has %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Design != want[i].Design || got[i].Benchmark != want[i].Benchmark ||
			explore.KeyOf(got[i].EP) != explore.KeyOf(want[i].EP) {
			t.Fatalf("point %d diverged: %s/%s vs %s/%s", i,
				got[i].Benchmark, got[i].Design, want[i].Benchmark, want[i].Design)
		}
	}

	constrained := crashSpace().Constrain(func(p explore.Point) bool { return p.Cost < 2 })
	if _, err := SpecFor(constrained, 0); err == nil {
		t.Fatal("SpecFor accepted a constrained space")
	}
}
