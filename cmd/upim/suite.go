package main

import (
	"errors"
	"fmt"
	"strings"

	"upim"
	"upim/internal/prim"
)

// cmdSuite runs the PrIM benchmark suite (all 16 workloads) on the
// Runner's worker pool and prints a one-line summary per benchmark — the
// quickest way to see the suite's compute-vs-memory-bound split (Section
// IV-A). With -out DIR the full per-benchmark results — phase timings plus
// every stats counter — are exported as a browsable artifact report via
// upim.SuiteTable.
func cmdSuite(c *cli, args []string) int {
	fs := c.fs
	var (
		threads = fs.Int("threads", 16, "tasklets per DPU")
		dpus    = fs.Int("dpus", 1, "number of DPUs")
		cache   = fs.Bool("cache", false, "use the cache-centric memory model")
		scale   = fs.String("scale", "tiny", "dataset scale: tiny, small or paper")
		jobs    = fs.Int("jobs", 0, "concurrent simulation points (0 = GOMAXPROCS)")
		out     = fs.String("out", "", "export the suite results as an artifact report into this directory")
		energyF = fs.Bool("energy", false, "print per-benchmark energy, power and EDP (and add an energy breakdown table to -out)")
		profile = fs.String("profile", "", "energy TechProfile JSON overriding the committed default")
		cpuprof = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if code, ok := c.parse(args); !ok {
		return code
	}
	sc, err := prim.ParseScale(*scale)
	if err != nil {
		return c.fail(2, err)
	}
	stop, err := c.profile(*cpuprof, *memprof)
	if err != nil {
		return c.fail(1, err)
	}
	defer stop()

	var tp *upim.TechProfile // nil = the committed default profile
	if *profile != "" {
		if !*energyF {
			return c.fail(1, errors.New("-profile only affects the -energy columns and table; add -energy to use it"))
		}
		if tp, err = upim.LoadTechProfile(*profile); err != nil {
			return c.fail(1, err)
		}
	}
	opts := []upim.RunnerOption{
		upim.WithTasklets(*threads),
		upim.WithDPUs(*dpus),
		upim.WithScale(sc),
	}
	if *cache {
		opts = append(opts, upim.WithMode(upim.ModeCache))
	}
	if *jobs > 0 {
		opts = append(opts, upim.WithParallelism(*jobs))
	}
	r, err := upim.NewRunner(opts...)
	if err != nil {
		return c.fail(1, err)
	}

	names := upim.Benchmarks()
	points := make([]upim.Point, len(names))
	for i, name := range names {
		points[i] = upim.Point{Benchmark: name}
	}
	results := make([]upim.SweepResult, len(points))
	done := make([]bool, len(points))
	for sr := range r.Sweep(c.ctx, points) {
		results[sr.Index] = sr
		done[sr.Index] = true
	}

	w := c.stdout
	fmt.Fprintf(w, "%-10s %12s %10s %8s %10s", "benchmark", "instructions", "cycles", "IPC", "DRAM MB")
	if *energyF {
		fmt.Fprintf(w, " %10s %9s %12s", "energy uJ", "power mW", "EDP uJ*ms")
	}
	fmt.Fprintf(w, " %12s\n", "verified")
	failed := 0
	suite := make([]*upim.Result, 0, len(results))
	for i, name := range names {
		switch {
		case !done[i]:
			fmt.Fprintf(w, "%-10s cancelled\n", name)
			failed++
		case results[i].Err != nil:
			fmt.Fprintf(w, "%-10s %s\n", name, results[i].Err)
			failed++
		default:
			res := results[i].Result
			suite = append(suite, res)
			fmt.Fprintf(w, "%-10s %12d %10d %8.3f %10.2f",
				name, res.Stats.Instructions, res.Stats.Cycles, res.Stats.IPC(),
				float64(res.Stats.DRAM.BytesRead)/1e6)
			if *energyF {
				rep := upim.EnergyOf(res, tp)
				total := res.Report.Total()
				fmt.Fprintf(w, " %10.4g %9.4g %12.4g",
					rep.MicroJoules(), rep.PowerWatts(total)*1e3, rep.EDPMicroJouleMS(total))
			}
			fmt.Fprintf(w, " %12s\n", "PASS")
		}
	}
	if *out != "" {
		tab := upim.SuiteTable(fmt.Sprintf("PrIM suite at scale %q, %d tasklets, %d DPUs", *scale, *threads, *dpus), suite)
		tab.Key = "prim"
		tab.Scale = *scale
		tabs := []*upim.ResultTable{tab}
		if *energyF {
			etab := upim.EnergyTable(fmt.Sprintf("PrIM suite energy at scale %q", *scale), suite, tp)
			etab.Scale = *scale
			tabs = append(tabs, etab)
		}
		if err := c.report(*out, tabs); err != nil {
			return c.fail(1, err)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// cmdFigures regenerates the paper's evaluation artifacts: every table and
// figure has a corresponding experiment (see -list). Results print as
// aligned text tables, export as a browsable report (-out: per-figure
// CSV + JSON + Markdown plus an index.md mapping artifacts to paper figure
// numbers), and validate against the committed tiny-scale reference
// results (-check), turning the whole figure suite into a regression
// oracle:
//
//	upim figures -list
//	upim figures -exp fig12 -scale small
//	upim figures -exp all -scale tiny -bench VA,BS
//	upim figures -exp all -scale tiny -out /tmp/report -check
//
// Maintainers regenerate the reference artifacts (only when a simulation
// change is meant to move the figures) with `make refdata`.
func cmdFigures(c *cli, args []string) int {
	fs := c.fs
	var (
		exp      = fs.String("exp", "all", "experiment id (see -list) or 'all'")
		scale    = fs.String("scale", "tiny", "dataset scale: tiny, small or paper")
		bench    = fs.String("bench", "", "comma-separated benchmark subset (default: all 16)")
		jobs     = fs.Int("jobs", 0, "concurrent simulation points (0 = GOMAXPROCS)")
		list     = fs.Bool("list", false, "list available experiments")
		out      = fs.String("out", "", "write a browsable report (CSV+JSON+Markdown+index.md) into this directory")
		check    = fs.Bool("check", false, "validate results against the committed reference artifacts")
		eps      = fs.Float64("eps", 0, "relative tolerance for -check (0 = the 1% default)")
		writeref = fs.String("writeref", "", "write reference JSON artifacts into this directory (maintainers only)")
		profile  = fs.String("profile", "", "energy TechProfile JSON overriding the committed default (energy experiment)")
		energyT  = fs.Bool("energy", false, "also run the energy experiment when -exp selects something else")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if code, ok := c.parse(args); !ok {
		return code
	}
	sc, err := prim.ParseScale(*scale)
	if err != nil {
		return c.fail(2, err)
	}
	art := artifacts{out: *out, writeref: *writeref, check: *check, eps: *eps}
	if err := art.validate(); err != nil {
		return c.fail(2, err)
	}
	if (*check || *writeref != "") && *bench != "" {
		return c.fail(2, errors.New("-check/-writeref compare full-suite tables; drop -bench"))
	}
	stop, err := c.profile(*cpuprof, *memprof)
	if err != nil {
		return c.fail(1, err)
	}
	defer stop()

	if *list {
		for _, e := range upim.Experiments() {
			fmt.Fprintf(c.stdout, "%-12s %s\n", e.ID, e.About)
		}
		return 0
	}

	opts := upim.ExperimentOptions{Scale: sc, Parallelism: *jobs}
	if *bench != "" {
		opts.Benchmarks = strings.Split(*bench, ",")
	}
	if *profile != "" {
		p, err := upim.LoadTechProfile(*profile)
		if err != nil {
			return c.fail(2, err)
		}
		opts.Profile = p
		// Only the energy experiment reads the profile; a run that will never
		// reach it would silently produce default-profile-independent tables
		// the user believes were recalibrated.
		if *exp != "all" && *exp != "energy" && !*energyT {
			return c.fail(2, fmt.Errorf("-profile only affects the energy experiment; add -energy or -exp energy to use %s", p.Name))
		}
	}

	var ids []string
	switch {
	case *exp == "all":
		for _, e := range upim.Experiments() {
			ids = append(ids, e.ID)
		}
	case *energyT && *exp != "energy":
		ids = []string{*exp, "energy"}
	default:
		ids = []string{*exp}
	}
	var tables []*upim.ResultTable
	for _, id := range ids {
		tab, err := upim.RunExperimentContext(c.ctx, id, opts)
		if err != nil {
			c.emit(tables, artifacts{}) // print what finished
			c.logf("%s: %v", id, err)
			return 1
		}
		tables = append(tables, tab)
	}
	return c.emit(tables, art)
}
