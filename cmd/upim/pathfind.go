package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"upim"
	"upim/internal/prim"
)

const defaultAxes = "tasklets=1,4,16;ilp=base,DRSF;link=1,2,4"

// cmdPathfind is the design-space exploration front end — the paper's
// pathfinding methodology as a tool. It sweeps typed design axes
// (tasklets, DPUs, frequency, MRAM-link scale, the ILP feature ladder,
// memory-hierarchy mode) over a set of benchmarks, runs every feasible
// point concurrently, and extracts Pareto frontiers (-goals: any subset of
// time, kernel, cost, energy, edp, p99), ranked best configurations, and
// per-point energy breakdowns (-energy, parameterized by a -profile
// TechProfile JSON). The p99 goal scores each point as a server: its tail
// latency under a canned two-tenant open-loop workload, scheduled by the
// point's policy axis level (fifo without one) — so QoS is a pathfinding
// objective and the scheduler a design dimension:
//
//	upim pathfind -bench VA -axes "link=1,2,4;policy=fifo,wfq,slo" -pareto -goals p99,cost
//
// With -store, finished points persist in a content-addressed result
// store: interrupt an exploration (Ctrl-C) and rerun the same command to
// resume exactly where it stopped — previously finished points are store
// hits and are never simulated again, even across different explorations
// that merely share points.
//
// With -tier2, the exploration runs in two fidelity tiers: a calibrated
// analytical estimator (internal/estimate) predicts every feasible point in
// microseconds, and only the estimated Pareto band over the active goals —
// widened by the -band slack — is simulated cycle-exactly. Points outside
// the band resolve at estimate fidelity (tagged in every table and in the
// store). -plan prints the feasible point count, the axis breakdown, and
// (with -tier2) the predicted estimate/simulate split, then exits without
// simulating anything.
//
// With -coordinator, the exploration runs as a sharded multi-worker system:
// -workers N workers drain leased shards of the point enumeration through
// the shared store, live progress streams to stderr (and, with -events, to
// a machine-readable JSONL log), and dead workers lose their leases so
// their shards re-queue. The artifacts are byte-identical to an
// uncoordinated run. -store also accepts an http(s):// URL pointing at a
// store server (`upim coordinate`).
//
// Usage:
//
//	upim pathfind -bench VA,BS -axes "tasklets=1,4,16;ilp=base,D,DRSF;link=1,2,4" \
//	         -scale tiny -store ./pfstore -pareto -goals energy,cost -energy -out ./report
//	upim pathfind -tier2 -band 0.25 -bench VA -axes "tasklets=1,4,16;freq=350,700;link=1,2,4" -pareto
//	upim pathfind -coordinator -workers 4 -store ./pfstore -events events.jsonl -bench VA -pareto
//
// Axis grammar: semicolon-separated "name=v1,v2,..." with axes arch
// (upmem, hbm-pim — which machine description and backend simulates the
// point), tasklets, dpus, freq (MHz), link (bandwidth multiplier), ilp
// (subsets of DRSF or "base"), mode (scratchpad, cache, simt), policy
// (fifo, wfq, slo — host software, scored by the p99 goal, free on the
// simulated point so all its levels share one store entry). Infeasible
// combinations (e.g. SIMT on a benchmark without a SIMT kernel, or a graph
// benchmark on the bank-level MAC backend) are constrained out. The
// canonical cross-architecture frontier run is regression-checked against
// committed references:
//
//	upim pathfind -bench GEMV,VA -axes "arch=upmem,hbm-pim;dpus=1,2" -scale tiny \
//	         -pareto -goals time,energy,cost -energy -check
func cmdPathfind(c *cli, args []string) int {
	fs := c.fs
	var (
		bench     = fs.String("bench", "", "comma-separated benchmark subset (default: all 16)")
		axesSpec  = fs.String("axes", defaultAxes, "design axes: \"name=v1,v2;...\" over tasklets, dpus, freq, link, ilp, mode, policy")
		scale     = fs.String("scale", "tiny", "dataset scale: tiny, small or paper")
		dpus      = fs.Int("dpus", 1, "base DPU count (a dpus axis overrides it)")
		storeDir  = fs.String("store", "", "persistent result store directory (enables resume; empty = no persistence)")
		resume    = fs.Bool("resume", true, "serve previously finished points from the store; -resume=false re-simulates (and refreshes) every point")
		pareto    = fs.Bool("pareto", false, "print the per-benchmark Pareto frontier (see -goals) and ranked best configs")
		goals     = fs.String("goals", "time,cost", "comma-separated Pareto objectives for -pareto: time, kernel, cost, energy, edp, p99")
		profile   = fs.String("profile", "", "energy TechProfile JSON overriding the committed default (used by the energy/edp goals and -energy)")
		energyT   = fs.Bool("energy", false, "print the per-point energy breakdown table")
		top       = fs.Int("top", 3, "designs per benchmark in the best-config ranking")
		jobs      = fs.Int("jobs", 0, "concurrent simulation points (0 = GOMAXPROCS)")
		out       = fs.String("out", "", "write a browsable report (CSV+JSON+Markdown+index.md) into this directory")
		verbose   = fs.Bool("v", false, "log every point as it finishes")
		tier2     = fs.Bool("tier2", false, "two-tier fidelity: estimate every point analytically, simulate only the estimated Pareto band over the active -goals")
		band      = fs.Float64("band", 0.25, "ε slack of the tier2 band: points within this relative margin of the estimated frontier are simulated too")
		calib     = fs.String("calibration", "", "calibration profile JSON for -tier2 (default: the committed artifact)")
		plan      = fs.Bool("plan", false, "print the feasible point count, axis breakdown and (with -tier2) the predicted estimate/simulate split, then exit without simulating")
		coordMode = fs.Bool("coordinator", false, "coordinated exploration: shard the space into leased work units drained by -workers workers through the shared -store")
		workers   = fs.Int("workers", 4, "worker count for -coordinator")
		events    = fs.String("events", "", "append the machine-readable JSONL coordination events log to this file (-coordinator only)")
		check     = fs.Bool("check", false, "validate every emitted table against the committed reference artifacts (the cross-architecture regression oracle)")
		eps       = fs.Float64("eps", 0, "relative tolerance for -check (<= 0 selects the default)")
		writeref  = fs.String("writeref", "", "write reference JSON artifacts for the emitted tables into this directory (maintainers only)")
	)
	if code, ok := c.parse(args); !ok {
		return code
	}
	sc, err := prim.ParseScale(*scale)
	if err != nil {
		return c.fail(2, err)
	}
	axes, err := upim.ParseAxes(*axesSpec)
	if err != nil {
		return c.fail(2, err)
	}
	var prof *upim.TechProfile // nil = the committed default profile
	if *profile != "" {
		if prof, err = upim.LoadTechProfile(*profile); err != nil {
			return c.fail(2, err)
		}
	}
	goalList, err := upim.ParseGoals(*goals, prof)
	if err != nil {
		return c.fail(2, err)
	}
	// Goals are only evaluated by the -pareto frontier and the -tier2 band,
	// so an explicit -goals without either would be silently ignored. The
	// same applies to the tier2-only knobs.
	if c.set("goals") && !*pareto && !*tier2 {
		return c.fail(2, errors.New("-goals only affects the -pareto frontier and the -tier2 band; add one of them to use it"))
	}
	if (c.set("band") || *calib != "") && !*tier2 {
		return c.fail(2, errors.New("-band and -calibration only affect -tier2 triage; add -tier2 to use them"))
	}
	art := artifacts{out: *out, writeref: *writeref, check: *check, eps: *eps}
	if err := art.validate(); err != nil {
		return c.fail(2, err)
	}
	// Likewise a profile only matters to evaluated energy/edp goals and the
	// -energy table; loading one that nothing reads would silently produce
	// profile-independent reports the user believes were recalibrated.
	// (The guard above means any energy/edp goal left in goalList is one
	// -pareto will actually evaluate.)
	if prof != nil && !*energyT {
		usesProfile := false
		for _, g := range goalList {
			usesProfile = usesProfile || g.UsesProfile
		}
		if !usesProfile {
			return c.fail(2, fmt.Errorf("-profile only affects the energy/edp goals under -pareto and the -energy table; add one of them to use %s", prof.Name))
		}
	}
	benchmarks := upim.Benchmarks()
	if *bench != "" {
		benchmarks = strings.Split(*bench, ",")
	}

	space := upim.NewDesignSpace(benchmarks, axes...)
	space.Scale = sc
	space.DPUs = *dpus
	pts, err := space.Points()
	if err != nil {
		return c.fail(2, err)
	}
	if len(pts) == 0 {
		return c.fail(2, errors.New("every point of the space is infeasible; relax the axes or benchmarks"))
	}

	var estimator *upim.Estimator
	if *tier2 {
		var cal *upim.CalibrationProfile // nil = the committed default
		if *calib != "" {
			if cal, err = upim.LoadCalibration(*calib); err != nil {
				return c.fail(2, err)
			}
		}
		if estimator, err = upim.NewEstimator(cal, prof); err != nil {
			return c.fail(2, err)
		}
	}
	topts := upim.TieredExploreOptions{Estimator: estimator, Band: *band, Goals: goalList}

	if *plan {
		fmt.Fprintf(c.stdout, "pathfind plan: %d feasible points (%d raw) over %d benchmarks at scale %s\n",
			len(pts), space.Size(), len(benchmarks), *scale)
		for _, a := range axes {
			labels := make([]string, len(a.Levels))
			for i, l := range a.Levels {
				labels[i] = l.Label
			}
			fmt.Fprintf(c.stdout, "  axis %-9s %d levels: %s\n", a.Name, len(a.Levels), strings.Join(labels, ", "))
		}
		if *tier2 {
			tri, err := upim.PlanTieredExploration(space, topts)
			if err != nil {
				return c.fail(2, err)
			}
			fmt.Fprintf(c.stdout, "  tier2: %d estimable, %d unestimable; band %d (%.1f%% of feasible) would simulate, %d resolve by estimate\n",
				tri.Estimable, tri.Unestimable, tri.Band, 100*float64(tri.Band)/float64(tri.Feasible), tri.EstimateOnly)
		}
		return 0
	}
	c.logf("exploring %d feasible points (%d raw) over %d benchmarks", len(pts), space.Size(), len(benchmarks))

	opts := upim.ExploreOptions{Parallelism: *jobs, Refresh: !*resume}
	var store upim.StoreBackend
	if *storeDir != "" {
		if strings.HasPrefix(*storeDir, "http://") || strings.HasPrefix(*storeDir, "https://") {
			store, err = upim.DialResultStore(*storeDir, upim.HTTPResultStoreOptions{})
		} else {
			store, err = upim.OpenResultStore(*storeDir)
		}
		if err != nil {
			return c.fail(1, err)
		}
		opts.Store = store
	}
	if *coordMode && store == nil {
		return c.fail(2, errors.New("-coordinator requires -store (workers and the merge share results through it)"))
	}
	if *coordMode && !*resume {
		return c.fail(2, errors.New("-resume=false is incompatible with -coordinator (workers depend on serving each other's finished points)"))
	}
	if *events != "" && !*coordMode {
		return c.fail(2, errors.New("-events records the coordination events log; add -coordinator to use it"))
	}
	if *verbose {
		opts.OnOutcome = func(o upim.ExploreOutcome) {
			status := "simulated"
			switch {
			case o.Cached:
				status = "cached"
			case o.Err != nil:
				status = "FAILED: " + o.Err.Error()
			case o.Fidelity == upim.FidelityEstimate:
				status = "estimated"
			}
			c.logf("%s %s: %s", o.Point.Benchmark, o.Point.Design, status)
		}
	}

	var x *upim.Exploration
	var tri *upim.ExploreTriage
	switch {
	case *coordMode:
		copts := upim.CoordOptions{
			Workers:     *workers,
			Parallelism: *jobs,
			Store:       store,
			OnProgress:  c.progressPrinter(),
		}
		if *tier2 {
			copts.Tiered = &topts
		}
		ev, closeEvents, ferr := openEvents(*events)
		if ferr != nil {
			return c.fail(1, ferr)
		}
		defer closeEvents()
		copts.Events = ev
		x, tri, err = upim.CoordinatedExplore(c.ctx, space, copts)
	case *tier2:
		x, tri, err = upim.ExploreTiered(c.ctx, space, opts, topts)
	default:
		x, err = upim.Explore(c.ctx, space, opts)
	}
	if x == nil {
		return c.fail(1, err)
	}
	if errors.Is(err, context.Canceled) {
		msg := fmt.Sprintf("interrupted after %d simulated points", x.Simulated)
		if store != nil {
			msg += fmt.Sprintf(" — rerun with the same -store %s to resume", *storeDir)
		}
		c.logf("%s", msg)
		return 1
	}

	tables := []*upim.ResultTable{x.SummaryTable()}
	if tri != nil {
		tables = append(tables, x.TriageTable(tri))
	}
	if *pareto {
		tables = append(tables, x.ParetoTable(goalList...), x.BestTable(*top))
	}
	if *energyT {
		tables = append(tables, x.EnergyTable(prof))
	}
	if code := c.emit(tables, art); code != 0 {
		return code
	}

	c.logf("%d points: %d cached, %d simulated, %d failed", len(x.Outcomes), x.Hits, x.Simulated, x.Failed)
	if tri != nil {
		c.logf("tier2: %d resolved by estimate, band %d/%d feasible (max rel err on band %.2f%%)",
			x.Estimated, tri.Band, tri.Feasible, tri.MaxRelErr*100)
	}
	if store != nil {
		n, _ := store.Count()
		c.logf("store %s now holds %d points", *storeDir, n)
		if st := store.Stats(); st.Corrupt > 0 {
			c.logf("store: %d corrupt entries degraded to re-simulation — the store repaired them, but check the directory's health", st.Corrupt)
		}
	}
	if err != nil {
		return c.fail(1, err)
	}
	return 0
}

// progressPrinter streams coordinated-exploration progress to stderr: one
// line per snapshot, throttled to twice a second so N workers cannot flood
// the terminal, always printing the final (all-done) snapshot.
func (c *cli) progressPrinter() func(upim.CoordProgress) {
	var last time.Time
	return func(p upim.CoordProgress) {
		done := p.Done == p.Total && p.Coordination.AllDone
		if !done && time.Since(last) < 500*time.Millisecond {
			return
		}
		last = time.Now()
		c.logf("%v", p)
	}
}

const defaultArtifact = "internal/estimate/calibration/default.json"

// cmdCalibrate reruns the analytical estimator's calibration against the
// cycle-exact simulator and rewrites the committed artifact — or, with
// -check, verifies that the committed artifact is byte-identical to a
// fresh refit and that its measured per-figure errors stay within its
// committed bounds (the `make calibration-check` CI gate).
func cmdCalibrate(c *cli, args []string) int {
	fs := c.fs
	var (
		scale = fs.String("scale", "tiny", "dataset scale of the calibration suite: tiny, small or paper")
		bench = fs.String("bench", "", "comma-separated benchmark subset (default: all 16)")
		name  = fs.String("name", "default", "calibration name recorded in the artifact")
		jobs  = fs.Int("jobs", 0, "concurrent simulation points (0 = GOMAXPROCS)")
		out   = fs.String("out", defaultArtifact, "artifact path to write (or, with -check, to verify)")
		check = fs.Bool("check", false, "verify the committed artifact instead of rewriting it: fail on byte drift or a per-figure error over its committed bound")
	)
	if code, ok := c.parse(args); !ok {
		return code
	}
	sc, err := prim.ParseScale(*scale)
	if err != nil {
		return c.fail(2, err)
	}
	opts := upim.FitCalibrationOptions{Name: *name, Scale: sc, Parallelism: *jobs}
	if *bench != "" {
		opts.Benchmarks = strings.Split(*bench, ",")
	}

	c.logf("running the calibration suite at scale %s...", *scale)
	cal, obs, err := upim.FitCalibration(c.ctx, opts)
	if err != nil {
		return c.fail(1, err)
	}
	c.logf("captured %d signatures from %d runs", len(cal.Signatures), len(obs))
	fresh, err := cal.Marshal()
	if err != nil {
		return c.fail(1, err)
	}

	if *check {
		committed, err := upim.LoadCalibration(*out)
		if err != nil {
			return c.fail(1, err)
		}
		disk, err := os.ReadFile(*out)
		if err != nil {
			return c.fail(1, err)
		}
		if !bytes.Equal(fresh, disk) {
			return c.fail(1, fmt.Errorf("%s drifts from a fresh refit — regenerate it with `upim calibrate` and commit the result", *out))
		}
		errs, err := upim.CalibrationFigureErrors(committed, obs)
		if err != nil {
			return c.fail(1, err)
		}
		c.printFigureErrors(errs, committed)
		if err := upim.CheckCalibrationBounds(committed, errs); err != nil {
			return c.fail(1, err)
		}
		fmt.Fprintf(c.stdout, "pathfind calibrate: %s verified: no drift, every figure within its committed bound\n", *out)
		return 0
	}

	if err := os.WriteFile(*out, fresh, 0o644); err != nil {
		return c.fail(1, err)
	}
	errs, err := upim.CalibrationFigureErrors(cal, obs)
	if err != nil {
		return c.fail(1, err)
	}
	c.printFigureErrors(errs, cal)
	fmt.Fprintf(c.stdout, "pathfind calibrate: wrote %s (%d signatures, %d figure bounds)\n", *out, len(cal.Signatures), len(cal.Bounds))
	return 0
}

// printFigureErrors renders measured per-figure errors next to the
// calibration's committed bounds.
func (c *cli) printFigureErrors(errs map[string]float64, cal *upim.CalibrationProfile) {
	bounds := map[string]float64{}
	for _, b := range cal.Bounds {
		bounds[b.Figure] = b.MaxRelErr
	}
	figs := make([]string, 0, len(errs))
	for f := range errs {
		figs = append(figs, f)
	}
	sort.Strings(figs)
	fmt.Fprintf(c.stdout, "%-8s %12s %12s\n", "figure", "max rel err", "bound")
	for _, f := range figs {
		fmt.Fprintf(c.stdout, "%-8s %11.2f%% %11.2f%%\n", f, errs[f]*100, bounds[f]*100)
	}
}
