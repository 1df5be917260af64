// Package explore is the pathfinding design-space explorer — the paper's
// headline methodology turned into a subsystem. A Space is the constrained
// Cartesian product of typed design axes (tasklets, DPUs, frequency,
// MRAM-link scale, the ILP feature ladder, memory-hierarchy mode) over a
// base configuration and a set of benchmarks; an Explorer drives every point
// of a space through the concurrent sweep engine, backed by a persistent
// content-addressed result Store so interrupted or repeated explorations
// resume instantly and a point is never simulated twice — not even across
// processes or across explorations that merely overlap.
//
// On top of the raw outcomes, Pareto extraction (pareto.go) and artifact
// tables (tables.go) turn an exploration into the deliverables the paper's
// pathfinding chapters are about: time/cost frontiers and ranked best
// configurations per benchmark.
package explore

import (
	"context"

	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/prim"
)

// Options parameterize an Explorer.
type Options struct {
	// Parallelism bounds the sweep worker pool (<= 0 selects GOMAXPROCS).
	Parallelism int
	// Watchdog bounds each point's per-DPU launch cycles (0 = host default).
	// It is part of a point's store key, so changing it re-simulates.
	Watchdog uint64
	// Store persists finished points; nil disables persistence. Any Backend
	// works: the local-dir Store, an HTTPStore talking to a `upim coordinate`
	// store server, or a custom implementation passing the storetest
	// conformance suite.
	Store Backend
	// Refresh ignores existing store entries (every point re-simulates) while
	// still writing fresh ones — for explicitly re-validating a store after a
	// simulator change without deleting it.
	Refresh bool
	// Cache shares kernel builds with other engines; nil allocates a private
	// cache.
	Cache *prim.BuildCache
	// OnOutcome, when non-nil, observes every outcome (cached or simulated)
	// synchronously as it is recorded — progress display, early cancellation.
	OnOutcome func(Outcome)
}

// Outcome is the result of one design point.
type Outcome struct {
	// Point is the originating design point; Index its position in
	// Exploration.Points.
	Point Point
	Index int
	// Key is the point's content address in the store.
	Key string
	// Result is the verified simulation result (nil when Err is set, the
	// exploration was cancelled before the point ran, or the point was
	// triaged to estimate fidelity by a two-tier exploration).
	Result *prim.Result
	// Fidelity is FidelityExact when Result is set, FidelityEstimate when the
	// point carries only a tier-A estimate, "" for failed/skipped points.
	Fidelity string
	// Estimate is the tier-A analytical prediction. Two-tier explorations set
	// it on every estimable point — including simulated ones, where it sits
	// alongside the exact Result for predicted-vs-actual accounting.
	Estimate *estimate.Estimate
	// Cached marks a store hit: the point was not simulated by this run.
	Cached bool
	Err    error
}

// Exploration is one explored space: every point with its outcome
// (index-aligned), plus counters proving how much work the store saved.
type Exploration struct {
	Space    *Space
	Points   []Point
	Outcomes []Outcome
	// Hits counts points served from the store, Simulated points actually
	// run by this exploration, Failed points that errored, and Estimated
	// points resolved at estimate fidelity without simulation (two-tier
	// explorations only).
	Hits, Simulated, Failed, Estimated int
}

// FirstErr returns the first point error in point order, if any.
func (x *Exploration) FirstErr() error {
	for i := range x.Outcomes {
		if err := x.Outcomes[i].Err; err != nil {
			return err
		}
	}
	return nil
}

// Explorer runs design spaces through the sweep engine and the result store.
// All methods are safe for concurrent use.
type Explorer struct {
	eng       *engine.Engine
	store     Backend
	watchdog  uint64
	refresh   bool
	onOutcome func(Outcome)
}

// New builds an Explorer.
func New(opts Options) *Explorer {
	cache := opts.Cache
	if cache == nil {
		cache = prim.NewBuildCache()
	}
	return &Explorer{
		eng:       engine.NewWithCache(opts.Parallelism, cache),
		store:     resolveBackend(opts.Store),
		watchdog:  opts.Watchdog,
		refresh:   opts.Refresh,
		onOutcome: opts.OnOutcome,
	}
}

// Explore runs every point of the space: points already in the store are
// served from it (Cached outcomes, no simulation); the rest run concurrently
// on the sweep engine and are persisted as they finish, so cancelling ctx
// mid-run loses at most the in-flight points — a later Explore over the same
// store resumes where this one stopped.
//
// The returned Exploration is nil, with the error saying why, when the space
// cannot enumerate its points (no benchmarks, a duplicate axis, an unknown
// benchmark). Otherwise it is index-aligned with the space's points, and the
// error is ctx.Err() after a cancellation, otherwise the first per-point
// failure (all points are attempted regardless); per-point errors are also
// recorded on their outcomes.
func (e *Explorer) Explore(ctx context.Context, space *Space) (*Exploration, error) {
	return e.run(ctx, space, nil)
}

// Resolve resolves one design point, index i of its space, by the rules an
// exploration applies to each of its points: estimate fidelity when plan
// puts it out of band, otherwise a store hit or a cycle-exact simulation
// persisted to the store. A nil plan resolves the point at exact fidelity.
// Failures are recorded on the outcome, and OnOutcome observes it like any
// exploration outcome. This is the single-point entry the coordinator's
// workers drive their shards through.
func (e *Explorer) Resolve(ctx context.Context, p Point, i int, plan *BandPlan) Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	o, ep, miss := e.open(p, i, plan)
	if miss {
		res, err := e.eng.Run(ctx, ep)
		e.settle(&o, ep, res, err)
	}
	e.emit(o)
	return o
}

// run is the batch loop behind Explore and ExploreTiered: it opens every
// point, sweeps the misses through the engine, settles each as it finishes
// and, after a cancellation, marks the points left unresolved. A nil plan
// enumerates the space and puts every point in band with no estimate.
func (e *Explorer) run(ctx context.Context, space *Space, plan *BandPlan) (*Exploration, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var pts []Point
	if plan != nil {
		pts = plan.Points
	} else {
		var err error
		if pts, err = space.Points(); err != nil {
			return nil, err
		}
	}
	x := &Exploration{Space: space, Points: pts, Outcomes: make([]Outcome, len(pts))}
	var missIdx []int
	var missPts []engine.Point
	for i, p := range pts {
		o, ep, miss := e.open(p, i, plan)
		x.Outcomes[i] = o
		if miss {
			missIdx = append(missIdx, i)
			missPts = append(missPts, ep)
		} else {
			x.count(&o)
			e.emit(o)
		}
	}
	if len(missPts) > 0 {
		for eo := range e.eng.Sweep(ctx, missPts) {
			o := &x.Outcomes[missIdx[eo.Index]]
			e.settle(o, eo.Point, eo.Result, eo.Err)
			x.count(o)
			e.emit(*o)
		}
	}
	if err := ctx.Err(); err != nil {
		// Mark the points the cancelled sweep never delivered.
		for i := range x.Outcomes {
			if o := &x.Outcomes[i]; o.Fidelity == "" && o.Err == nil {
				o.Err = err
			}
		}
		return x, err
	}
	return x, x.FirstErr()
}

// open starts resolving point p at index i: it defaults the watchdog, keys
// the point and attaches the plan's estimate. An out-of-band point resolves
// here at estimate fidelity; its estimate still persists so the store
// records the whole exploration at its actual fidelity. An in-band point
// resolves here when the store holds it (unless Refresh). Otherwise miss is
// set: the point must simulate as ep and then be settled.
func (e *Explorer) open(p Point, i int, plan *BandPlan) (o Outcome, ep engine.Point, miss bool) {
	ep = p.EP
	if ep.Watchdog == 0 {
		ep.Watchdog = e.watchdog
	}
	o = Outcome{Point: p, Index: i, Key: KeyOf(ep)}
	if plan != nil {
		o.Estimate = plan.Estimates[i]
		if !plan.InBand[i] {
			o.Fidelity = FidelityEstimate
			if err := e.store.PutEstimate(o.Key, ep, o.Estimate); err != nil {
				o.Err, o.Fidelity = err, ""
			}
			return o, ep, false
		}
	}
	if !e.refresh {
		if res, ok := e.store.Get(o.Key); ok {
			o.Result, o.Cached, o.Fidelity = res, true, FidelityExact
			return o, ep, false
		}
	}
	return o, ep, true
}

// settle records the simulation of ep on o and persists its result. A point
// that simulated but failed to persist counts as failed, not simulated: it
// keeps its Result, carries the store error, gets no fidelity, and the next
// run re-simulates it.
func (e *Explorer) settle(o *Outcome, ep engine.Point, res *prim.Result, err error) {
	o.Result, o.Err = res, err
	if err == nil && res != nil {
		o.Err = e.store.Put(o.Key, ep, res)
	}
	if o.Err == nil && o.Result != nil {
		o.Fidelity = FidelityExact
	}
}

// count tallies one resolved outcome into the exploration's counters.
func (x *Exploration) count(o *Outcome) {
	switch {
	case o.Err != nil:
		x.Failed++
	case o.Cached:
		x.Hits++
	case o.Fidelity == FidelityEstimate:
		x.Estimated++
	case o.Result != nil:
		x.Simulated++
	}
}

// CacheStats exposes the kernel build-cache counters.
func (e *Explorer) CacheStats() prim.CacheStats { return e.eng.CacheStats() }

func (e *Explorer) emit(o Outcome) {
	if e.onOutcome != nil {
		e.onOutcome(o)
	}
}
