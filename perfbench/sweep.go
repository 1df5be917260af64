package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"upim/internal/artifact"
	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/explore"
	"upim/internal/prim"
)

// sweepAxes is the explored space: with all 16 benchmarks at tiny scale it
// has 1296 feasible points, of which the 0.25 band simulates 729.
const sweepAxes = "arch=upmem,hbm-pim;tasklets=1,4,16;freq=350,700;link=1,2,4;ilp=base,DRSF;mode=scratchpad,cache"

// sweepWorkload is sweep-cold: a two-tier exploration of sweepAxes into a
// fresh store every pass, followed by its Pareto, Best, Summary, Energy and
// Triage tables.
type sweepWorkload struct {
	par   int
	dir   string
	cache *prim.BuildCache
	space *explore.Space
	goals []explore.Goal
	topts explore.TieredOptions

	// filled is the store the set-up exploration left; the traced run's
	// resume probe re-explores it.
	filled string
	// ref digests the set-up exploration's tables: every exploration must
	// reproduce them byte for byte, cold or resumed.
	ref    [32]byte
	stores int
	// last is the most recent pass's exploration, for the probes.
	last *sweepOut
}

type sweepOut struct {
	x      *explore.Exploration
	tri    *explore.Triage
	tables []*artifact.Table
	store  *explore.Store
	timed  *timedBackend
	hits   int64
}

// trashDir receives used stores. Deleting a store frees thousands of small
// files at once, and on a filesystem mounted with online discard that slows
// every later file write for a minute or more. So a used store is moved here
// (a rename), and only the next sweep-cold run deletes the trash, before its
// set-up starts and so outside every timed pass.
var trashDir = filepath.Join(outDir, "trash")

func newSweep(c runConfig) (workload, error) {
	if err := os.RemoveAll(trashDir); err != nil {
		return nil, err
	}
	return &sweepWorkload{par: c.par, dir: c.dir}, os.MkdirAll(trashDir, 0o755)
}

// discard moves a used store into the trash.
func (w *sweepWorkload) discard(dir string) error {
	return os.Rename(dir, filepath.Join(trashDir, fmt.Sprintf("%d-%s", os.Getpid(), filepath.Base(dir))))
}

func (w *sweepWorkload) setup(ctx context.Context) error {
	est, err := estimate.New(nil, nil)
	if err != nil {
		return err
	}
	if w.goals, err = explore.ParseGoals("time,energy,cost", nil); err != nil {
		return err
	}
	axes, err := explore.ParseAxes(sweepAxes)
	if err != nil {
		return err
	}
	var names []string
	for _, b := range prim.Benchmarks() {
		names = append(names, b.Name)
	}
	w.space = explore.NewSpace(names, axes...)
	w.space.Scale = prim.ScaleTiny
	w.topts = explore.TieredOptions{Estimator: est, Band: 0.25, Goals: w.goals}
	w.cache = prim.NewBuildCache()

	// One cold exploration builds the kernels into the shared cache and
	// fills the store the resume probe reads.
	w.filled = w.newStoreDir()
	out, err := w.explore(ctx, startPass(nil), w.filled)
	if err != nil {
		return err
	}
	if out.x.Simulated != out.tri.Band || out.x.Failed > 0 {
		return fmt.Errorf("setup exploration simulated %d of a %d-point band, %d failed", out.x.Simulated, out.tri.Band, out.x.Failed)
	}
	w.ref, err = digestTables(out.tables)
	return err
}

func (w *sweepWorkload) newStoreDir() string {
	w.stores++
	return filepath.Join(w.dir, fmt.Sprintf("store-%d", w.stores))
}

// explore runs the timed part of a pass: the exploration and its tables.
func (w *sweepWorkload) explore(ctx context.Context, p *pass, dir string) (*sweepOut, error) {
	st, err := explore.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	out := &sweepOut{store: st, hits: w.cache.Stats().Hits}
	var be explore.Backend = st
	if p.traced() {
		out.timed = &timedBackend{Store: st}
		be = out.timed
	}
	ex := explore.New(explore.Options{Parallelism: w.par, Store: be, Cache: w.cache})
	id := p.begin("explore.explore_tiered")
	out.x, out.tri, err = ex.ExploreTiered(ctx, w.space, w.topts)
	p.end(id)
	if out.timed != nil {
		out.timed.flush(p.tr, id)
	}
	if out.x == nil {
		return nil, err
	}
	id = p.begin("explore.pareto")
	out.tables = []*artifact.Table{out.x.ParetoTable(w.goals...)}
	p.end(id)
	id = p.begin("explore.tables")
	out.tables = append(out.tables, out.x.BestTable(3), out.x.SummaryTable(), out.x.EnergyTable(nil), out.x.TriageTable(out.tri))
	p.end(id)
	p.stop()
	return out, nil
}

func (w *sweepWorkload) pass(ctx context.Context, p *pass) passResult {
	dir := w.newStoreDir()
	out, err := w.explore(ctx, p, dir)
	p.stop()
	if err := w.discard(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: exploration: %v\n", err)
		return passResult{attempted: 1, failed: 1}
	}
	w.last = out
	x, tri := out.x, out.tri
	r := passResult{attempted: len(x.Outcomes) + len(out.tables) + 1, points: float64(len(x.Outcomes))}
	r.failed = w.verify(out, tri.Band, 0)
	if !p.traced() {
		return r
	}

	c := simulatedCounts(x)
	r.instructions = c["core.instructions"]
	c["estimate.points"] = float64(tri.Estimable)
	c["estimate.unestimable"] = float64(tri.Unestimable)
	c["estimate.band_frac"] = float64(tri.Band) / float64(tri.Feasible)
	c["estimate.max_rel_err"] = tri.MaxRelErr
	c["estimate.mean_rel_err"] = tri.MeanRelErr
	c["explore.keys"] = float64(len(x.Points))
	c["explore.frontier_points"] = float64(len(out.tables[0].Rows))
	c["kbuild.cache_hits"] = float64(w.cache.Stats().Hits - out.hits)
	ss, tb := out.store.Stats(), out.timed
	c["store.hits"] = float64(ss.Hits)
	c["store.misses"] = float64(ss.Misses)
	c["store.corrupt"] = float64(ss.Corrupt)
	c["store.gets"] = float64(tb.gets.calls)
	c["store.get_estimates"] = float64(tb.getEsts.calls)
	c["store.puts"] = float64(tb.puts.calls)
	c["store.put_estimates"] = float64(tb.putEsts.calls)
	c["store.redundant_puts"] = float64(tb.redundant)
	c["store.bytes"] = float64(tb.bytes)
	r.counts = c
	return r
}

// verify counts an exploration's failed units: points that errored (a
// simulated point that failed prim's golden verification carries an error),
// a broken resume contract (wantSim points simulated, wantHits served from
// the store), and each table that differs from the set-up exploration's.
func (w *sweepWorkload) verify(out *sweepOut, wantSim, wantHits int) int {
	x, tri := out.x, out.tri
	failed := 0
	for _, o := range x.Outcomes {
		if o.Err != nil || (o.Result == nil && o.Estimate == nil) {
			failed++
		}
	}
	if x.Simulated != wantSim || x.Hits != wantHits || x.Estimated != tri.EstimateOnly {
		fmt.Fprintf(os.Stderr, "perfbench: exploration simulated %d (want %d), hit %d (want %d), estimated %d (want %d)\n",
			x.Simulated, wantSim, x.Hits, wantHits, x.Estimated, tri.EstimateOnly)
		failed++
	}
	if d, err := digestTables(out.tables); err != nil || d != w.ref {
		fmt.Fprintf(os.Stderr, "perfbench: tables differ from the set-up exploration's (err %v)\n", err)
		failed += len(out.tables)
	}
	return failed
}

// probe times the layers ExploreTiered calls internally: tier-A planning,
// keying, energy pricing of every exact result, and (sweep-cold) cycle-exact
// simulation of the band through Engine.RunInArena, whose statistics must
// match the pass's.
func (w *sweepWorkload) probe(ctx context.Context, tr *tracer, root int) (map[string]float64, error) {
	v, err := probeKernelBuilds(tr, root)
	if err != nil {
		return nil, err
	}
	id := tr.begin("estimate.plan", root)
	t0 := time.Now()
	_, err = explore.PlanTiered(w.space, w.topts)
	v["estimate.plan_s"] = time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return nil, err
	}

	pts, err := w.space.Points()
	if err != nil {
		return nil, err
	}
	id = tr.begin("explore.key", root)
	t0 = time.Now()
	for _, p := range pts {
		explore.KeyOf(p.EP)
	}
	v["explore.key_s"] = time.Since(t0).Seconds()
	tr.end(id)

	if w.last == nil {
		return nil, fmt.Errorf("no pass completed its exploration")
	}
	x := w.last.x
	var exact []*prim.Result
	var simulated []engine.Point
	for _, o := range x.Outcomes {
		if o.Result == nil {
			continue
		}
		exact = append(exact, o.Result)
		if !o.Cached {
			simulated = append(simulated, o.Point.EP)
		}
	}
	id = tr.begin("energy.price", root)
	t0 = time.Now()
	for _, res := range exact {
		res.Energy(nil)
	}
	v["energy.price_s"] = time.Since(t0).Seconds()
	tr.end(id)
	v["energy.pricings"] = float64(len(exact))

	ev, err := probeEngine(ctx, tr, root, engine.NewWithCache(1, w.cache), simulated)
	if err != nil {
		return nil, err
	}
	for _, k := range []string{"engine.run_s", "hbmpim.run_s", "core.kips"} {
		v[k] = ev[k]
	}
	// The probe re-simulated the pass's band on a recycled arena: its work
	// counts must be the pass's, exactly.
	for k, n := range simulatedCounts(x) {
		if ev[k] != n {
			return nil, fmt.Errorf("re-simulating the band changed %s: %v in the pass, %v in the probe", k, n, ev[k])
		}
	}
	return v, w.probeResume(ctx, tr, root, v)
}

// probeResume re-explores the store the set-up filled, as a resumed pathfind
// run or the coordinator's final merge does: no point simulates, and the time
// goes to store reads, estimate rewrites, keying, re-planning, energy pricing
// and the tables. It is a probe rather than a workload of its own because its
// store writes make its wall time follow the host disk: on a 2-vCPU virtual
// machine with ext4 mounted with online discard it varied twofold from
// minute to minute.
func (w *sweepWorkload) probeResume(ctx context.Context, tr *tracer, root int, v map[string]float64) error {
	p := &pass{tr: tr, root: tr.begin("resume", root), start: time.Now()}
	out, err := w.explore(ctx, p, w.filled)
	p.stop()
	if err != nil {
		return fmt.Errorf("resumed exploration: %w", err)
	}
	if f := w.verify(out, 0, out.tri.Band); f > 0 {
		return fmt.Errorf("resumed exploration: %d units failed", f)
	}
	wall := p.wall.Seconds()
	tb := out.timed
	v["resume.wall_s"] = wall
	v["resume.points_per_s"] = float64(len(out.x.Outcomes)) / wall
	v["resume.store_gets"] = float64(tb.gets.calls)
	v["resume.store_get_s"] = tb.gets.total.Seconds()
	v["resume.store_hits"] = float64(out.store.Stats().Hits)
	v["resume.put_estimates"] = float64(tb.putEsts.calls)
	v["resume.put_estimate_s"] = tb.putEsts.total.Seconds()
	v["resume.redundant_puts"] = float64(tb.redundant)
	v["resume.store_bytes"] = float64(tb.bytes)
	printLayerTable(os.Stdout, "resumed exploration of the set-up's store (probe; share is of its own wall time)",
		foldRows(tr.fold([]int{p.root}), 1, wall, nil))
	return nil
}

// finish moves the set-up's store into the trash.
func (w *sweepWorkload) finish(context.Context) (int, int) {
	if err := w.discard(w.filled); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	return 0, 0
}

// simulatedCounts sums the work counts of the points the exploration
// simulated (store hits excluded), as probeEngine counts them.
func simulatedCounts(x *explore.Exploration) map[string]float64 {
	c := map[string]float64{}
	for _, o := range x.Outcomes {
		if o.Result == nil || o.Cached {
			continue
		}
		c["engine.points"]++
		if o.Result.Arch != "" {
			c["hbmpim.points"]++
			continue
		}
		addStats(c, o.Result)
	}
	return c
}

// digestTables hashes the tables' JSON renderings.
func digestTables(tabs []*artifact.Table) ([32]byte, error) {
	h := sha256.New()
	for _, t := range tabs {
		if err := t.WriteJSON(h); err != nil {
			return [32]byte{}, err
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d, nil
}
