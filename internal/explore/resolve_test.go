package explore

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/prim"
)

var errPersist = errors.New("injected persist failure")

// failingStore wraps a backend so that Put and PutEstimate fail for the
// chosen keys; reads and every other write pass through.
type failingStore struct {
	Backend
	fail map[string]bool
}

func (f *failingStore) Put(key string, p engine.Point, res *prim.Result) error {
	if f.fail[key] {
		return fmt.Errorf("%w: %.12s", errPersist, key)
	}
	return f.Backend.Put(key, p, res)
}

func (f *failingStore) PutEstimate(key string, p engine.Point, est *estimate.Estimate) error {
	if f.fail[key] {
		return fmt.Errorf("%w: %.12s", errPersist, key)
	}
	return f.Backend.PutEstimate(key, p, est)
}

// persistFailures opens a fresh store and wraps it so that writes fail for
// the keys of the points pick selects.
func persistFailures(t *testing.T, pts []Point, pick func(i int) bool) (*Store, *failingStore) {
	t.Helper()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fail := map[string]bool{}
	for i, p := range pts {
		if pick(i) {
			fail[KeyOf(p.EP)] = true
		}
	}
	return st, &failingStore{Backend: st, fail: fail}
}

// class names how an outcome resolved, checking the fields each
// resolution must carry.
func class(t *testing.T, o Outcome) string {
	t.Helper()
	switch {
	case o.Err != nil:
		if o.Fidelity != "" {
			t.Errorf("point %d failed but has fidelity %q", o.Index, o.Fidelity)
		}
		return "failed"
	case o.Cached:
		if o.Fidelity != FidelityExact || o.Result == nil {
			t.Errorf("cached point %d: fidelity %q, result %v", o.Index, o.Fidelity, o.Result != nil)
		}
		return "cached"
	case o.Fidelity == FidelityEstimate:
		if o.Estimate == nil || o.Result != nil {
			t.Errorf("estimated point %d: estimate %v, result %v", o.Index, o.Estimate != nil, o.Result != nil)
		}
		return "estimated"
	case o.Fidelity == FidelityExact && o.Result != nil:
		return "simulated"
	}
	t.Errorf("point %d is unresolved: %+v", o.Index, o)
	return "unresolved"
}

// checkFailedPersist asserts that exactly the points whose keys the store
// refuses failed, with the store error and no fidelity, that the counters
// agree, and that FirstErr surfaces the failure.
func checkFailedPersist(t *testing.T, x *Exploration, err error, fs *failingStore) {
	t.Helper()
	if !errors.Is(err, errPersist) || !errors.Is(x.FirstErr(), errPersist) {
		t.Fatalf("exploration error = %v, FirstErr = %v; want the persist failure", err, x.FirstErr())
	}
	n := map[string]int{}
	for _, o := range x.Outcomes {
		c := class(t, o)
		n[c]++
		if fs.fail[o.Key] != (c == "failed") {
			t.Errorf("point %d resolved %s, refused write %v", o.Index, c, fs.fail[o.Key])
		}
		if c == "failed" && !errors.Is(o.Err, errPersist) {
			t.Errorf("point %d failed with %v, want the persist failure", o.Index, o.Err)
		}
	}
	if x.Failed != n["failed"] || x.Simulated != n["simulated"] || x.Estimated != n["estimated"] || x.Hits != n["cached"] {
		t.Errorf("counters failed %d simulated %d estimated %d hits %d, outcomes %v",
			x.Failed, x.Simulated, x.Estimated, x.Hits, n)
	}
	if x.Failed != len(fs.fail) {
		t.Errorf("%d points failed, the store refused %d keys", x.Failed, len(fs.fail))
	}
}

// checkResolveMatches puts every point through Resolve and asserts it
// resolves exactly as the batch loop did.
func checkResolveMatches(t *testing.T, ex *Explorer, x *Exploration, plan *BandPlan) {
	t.Helper()
	for i, want := range x.Outcomes {
		got := ex.Resolve(context.Background(), x.Points[i], i, plan)
		if gc, wc := class(t, got), class(t, want); gc != wc || got.Key != want.Key || got.Index != i {
			t.Errorf("point %d: Resolve resolves it %s under key %.12s, the batch loop %s under %.12s",
				i, gc, got.Key, wc, want.Key)
			continue
		}
		if !reflect.DeepEqual(got.Estimate, want.Estimate) {
			t.Errorf("point %d: Resolve and the batch loop attach different estimates", i)
		}
		if (got.Result == nil) != (want.Result == nil) ||
			got.Result != nil && got.Result.Report.Total() != want.Result.Report.Total() {
			t.Errorf("point %d: Resolve and the batch loop disagree on the result", i)
		}
		if errors.Is(got.Err, errPersist) != errors.Is(want.Err, errPersist) {
			t.Errorf("point %d: Resolve error %v, batch error %v", i, got.Err, want.Err)
		}
	}
}

// TestFailedPersistCountsAsFailed pins the failed-persist rule of Explore: a
// point that simulates but cannot be stored is failed, not simulated, and
// the next run over a healthy store re-simulates exactly those points.
// Resolve applies the same rule point by point.
func TestFailedPersistCountsAsFailed(t *testing.T) {
	ctx := context.Background()
	space := resumeSpace()
	pts, err := space.Points()
	if err != nil {
		t.Fatal(err)
	}
	st, fs := persistFailures(t, pts, func(i int) bool { return i%3 == 1 })
	x, err := New(Options{Parallelism: 2, Store: fs}).Explore(ctx, space)
	checkFailedPersist(t, x, err, fs)
	for _, o := range x.Outcomes {
		if o.Err != nil && o.Result == nil {
			t.Errorf("point %d lost its simulated result when the write failed", o.Index)
		}
	}

	// Resolve over a second failing store classifies every point alike and
	// leaves that store holding what the batch loop left in st.
	st2, fs2 := persistFailures(t, pts, func(i int) bool { return i%3 == 1 })
	checkResolveMatches(t, New(Options{Parallelism: 1, Store: fs2}), x, nil)

	// Over the healthy store, only the refused points simulate again.
	again, err := New(Options{Parallelism: 2, Store: st}).Explore(ctx, space)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range again.Outcomes {
		if o.Cached == fs.fail[o.Key] {
			t.Errorf("point %d: cached %v on the healthy rerun, refused write %v", o.Index, o.Cached, fs.fail[o.Key])
		}
	}
	if again.Simulated != len(fs.fail) || again.Hits != len(pts)-len(fs.fail) {
		t.Errorf("healthy rerun simulated %d, hit %d; want %d and %d",
			again.Simulated, again.Hits, len(fs.fail), len(pts)-len(fs.fail))
	}
	checkResolveMatches(t, New(Options{Parallelism: 1, Store: st2}), again, nil)
}

// TestTieredFailedPersistCountsAsFailed is the two-tier counterpart: a
// refused exact write fails a band point, a refused estimate write fails an
// out-of-band point, and neither counts as simulated or estimated.
func TestTieredFailedPersistCountsAsFailed(t *testing.T) {
	ctx := context.Background()
	space := resumeSpace()
	topts := TieredOptions{Band: 0.25}
	plan, err := PlanBand(space, topts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Triage.Band == 0 || plan.Triage.EstimateOnly == 0 {
		t.Fatalf("triage %+v: the test needs points in and out of the band", plan.Triage)
	}
	// Refuse the first two band points and the first two out-of-band ones.
	picked := map[bool]int{}
	_, fs := persistFailures(t, plan.Points, func(i int) bool {
		picked[plan.InBand[i]]++
		return picked[plan.InBand[i]] <= 2
	})
	x, tri, err := New(Options{Parallelism: 2, Store: fs}).ExploreTiered(ctx, space, topts)
	checkFailedPersist(t, x, err, fs)
	if tri.Band != plan.Triage.Band || x.Simulated != tri.Band-2 || x.Estimated != tri.EstimateOnly-2 {
		t.Errorf("triage %+v, simulated %d, estimated %d; want band-2 simulated and estimate-only-2 estimated",
			tri, x.Simulated, x.Estimated)
	}

	_, fs2 := persistFailures(t, plan.Points, func(i int) bool { return fs.fail[KeyOf(plan.Points[i].EP)] })
	checkResolveMatches(t, New(Options{Parallelism: 1, Store: fs2}), x, plan)
}
