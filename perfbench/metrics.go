package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef declares one reported metric. The same list is declared in
// BENCHMARK.json; the benchmark refuses to run when the two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	Bound float64
	// Moves names the end-to-end metric and workload(s) a per-layer metric
	// is expected to move (the hypothesis a change claiming a gain states).
	Moves string
	// Count marks a work count: it must repeat exactly from pass to pass and
	// from run to run on the same sources and seed.
	Count bool
}

// endToEnd are the user-visible metrics, measured with tracing off.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

const (
	mvFigures  = "wall_s on figures"
	mvCore     = "wall_s on figures; wall_s and sim_kips on sweep-cold"
	mvCold     = "wall_s and points_per_s on sweep-cold"
	mvResume   = "resume.points_per_s, the resumed exploration sweep-cold's traced run probes"
	mvSweep    = mvCold + "; " + mvResume
	mvServe    = "wall_s and requests_per_s on serve"
	mvSetup    = "setup_s on every workload"
	mvAll      = "peak_rss_mb and wall_s on every workload"
	mvOverhead = "none: reconciles traced and untraced wall_s"
)

// perLayer are the traced run's metrics. Times are seconds per pass unless
// the name says otherwise; counts are per pass.
var perLayer = []metricDef{
	// Throughputs of the untraced passes of the traced run. Each applies to
	// the workloads named in Moves and reads 0 on the others.
	{Name: "points_per_s", Unit: "1/s", Better: "higher", Moves: "sweep-cold (design points resolved per host second)"},
	{Name: "sim_kips", Unit: "kIPS", Better: "higher", Moves: "sweep-cold (simulated DPU instructions per host second)"},
	{Name: "requests_per_s", Unit: "1/s", Better: "higher", Moves: "serve (requests replayed per host second)"},

	{Name: "figures.table1_s", Unit: "s", Better: "lower", Moves: mvFigures},
	{Name: "figures.table2_s", Unit: "s", Better: "lower", Moves: mvFigures},
	{Name: "figures.validation_s", Unit: "s", Better: "lower", Moves: mvFigures + " (multi-DPU host staging)"},
	{Name: "figures.fig5_s", Unit: "s", Better: "lower", Moves: mvFigures},
	{Name: "figures.fig6_s", Unit: "s", Better: "lower", Moves: mvFigures},
	{Name: "figures.fig7_s", Unit: "s", Better: "lower", Moves: mvFigures},
	{Name: "figures.fig8_s", Unit: "s", Better: "lower", Moves: mvFigures},
	{Name: "figures.fig9_s", Unit: "s", Better: "lower", Moves: mvFigures},
	{Name: "figures.fig10_s", Unit: "s", Better: "lower", Moves: mvFigures + " (multi-DPU host staging)"},
	{Name: "figures.fig11_s", Unit: "s", Better: "lower", Moves: mvFigures + " (SIMT)"},
	{Name: "figures.fig12_s", Unit: "s", Better: "lower", Moves: mvFigures},
	{Name: "figures.fig13_s", Unit: "s", Better: "lower", Moves: mvFigures + " (DRAM link)"},
	{Name: "figures.mmu_s", Unit: "s", Better: "lower", Moves: mvFigures + " (MMU)"},
	{Name: "figures.fig15_s", Unit: "s", Better: "lower", Moves: mvFigures + " (cache)"},
	{Name: "figures.fig16_s", Unit: "s", Better: "lower", Moves: mvFigures + " (cache)"},
	{Name: "figures.table3_s", Unit: "s", Better: "lower", Moves: mvFigures},
	{Name: "figures.energy_s", Unit: "s", Better: "lower", Moves: mvFigures},
	{Name: "figures.crossarch_s", Unit: "s", Better: "lower", Moves: mvFigures},
	{Name: "figures.check_s", Unit: "s", Better: "lower", Moves: mvFigures},

	{Name: "kbuild.build_s", Unit: "s", Better: "lower", Moves: mvSetup},
	{Name: "kbuild.builds", Unit: "count", Better: "lower", Moves: mvSetup, Count: true},
	{Name: "kbuild.links", Unit: "count", Better: "lower", Moves: mvSetup, Count: true},
	{Name: "kbuild.cache_hits", Unit: "count", Better: "higher", Moves: mvSetup, Count: true},

	{Name: "engine.run_s", Unit: "s", Better: "lower", Moves: "wall_s and sim_kips on sweep-cold; wall_s on serve through profiling"},
	{Name: "engine.points", Unit: "count", Better: "lower", Moves: mvCold, Count: true},

	{Name: "core.instructions", Unit: "count", Better: "lower", Moves: mvCore, Count: true},
	{Name: "core.cycles", Unit: "count", Better: "lower", Moves: mvCore, Count: true},
	{Name: "core.kips", Unit: "kIPS", Better: "higher", Moves: mvCore},

	{Name: "dram.read_bursts", Unit: "count", Better: "lower", Moves: mvCore + "; most through figures.fig13_s", Count: true},
	{Name: "dram.write_bursts", Unit: "count", Better: "lower", Moves: mvCore + "; most through figures.fig13_s", Count: true},
	{Name: "dram.row_hits", Unit: "count", Better: "higher", Moves: mvCore + "; most through figures.fig13_s", Count: true},
	{Name: "dram.row_conflicts", Unit: "count", Better: "lower", Moves: mvCore + "; most through figures.fig13_s", Count: true},

	{Name: "cache.accesses", Unit: "count", Better: "lower", Moves: "wall_s on figures through fig15/fig16; wall_s on sweep-cold through its cache-mode half", Count: true},
	{Name: "cache.misses", Unit: "count", Better: "lower", Moves: "wall_s on figures through fig15/fig16; wall_s on sweep-cold through its cache-mode half", Count: true},
	{Name: "cache.mshr_merges", Unit: "count", Better: "higher", Moves: "wall_s on figures through fig15/fig16; wall_s on sweep-cold through its cache-mode half", Count: true},

	{Name: "mmu.tlb_misses", Unit: "count", Better: "lower", Moves: "wall_s on figures through figures.mmu_s; wall_s on serve (MMU on)", Count: true},
	{Name: "mmu.walks", Unit: "count", Better: "lower", Moves: "wall_s on figures through figures.mmu_s; wall_s on serve (MMU on)", Count: true},

	{Name: "host.launches", Unit: "count", Better: "lower", Moves: mvFigures, Count: true},
	{Name: "host.bytes_in", Unit: "B", Better: "lower", Moves: mvFigures, Count: true},
	{Name: "host.bytes_out", Unit: "B", Better: "lower", Moves: mvFigures, Count: true},

	{Name: "hbmpim.points", Unit: "count", Better: "lower", Moves: mvCold, Count: true},
	{Name: "hbmpim.run_s", Unit: "s", Better: "lower", Moves: mvCold},

	{Name: "energy.pricings", Unit: "count", Better: "lower", Moves: mvResume + "; figures.energy_s", Count: true},
	{Name: "energy.price_s", Unit: "s", Better: "lower", Moves: mvResume + "; figures.energy_s"},

	{Name: "estimate.plan_s", Unit: "s", Better: "lower", Moves: mvSweep},
	{Name: "estimate.points", Unit: "count", Better: "higher", Moves: mvSweep, Count: true},
	{Name: "estimate.unestimable", Unit: "count", Better: "lower", Moves: mvSweep, Count: true},
	{Name: "estimate.band_frac", Unit: "ratio", Better: "lower", Moves: mvSweep, Count: true},
	{Name: "estimate.max_rel_err", Unit: "ratio", Better: "lower", Moves: mvSweep, Count: true},
	{Name: "estimate.mean_rel_err", Unit: "ratio", Better: "lower", Moves: mvSweep, Count: true},

	{Name: "explore.explore_tiered_s", Unit: "s", Better: "lower", Moves: mvCold},
	{Name: "explore.keys", Unit: "count", Better: "lower", Moves: mvSweep, Count: true},
	{Name: "explore.key_s", Unit: "s", Better: "lower", Moves: mvSweep},
	{Name: "explore.pareto_s", Unit: "s", Better: "lower", Moves: mvSweep},
	{Name: "explore.tables_s", Unit: "s", Better: "lower", Moves: mvSweep},
	{Name: "explore.frontier_points", Unit: "count", Better: "lower", Moves: mvSweep, Count: true},

	{Name: "store.gets", Unit: "count", Better: "lower", Moves: mvCold, Count: true},
	{Name: "store.get_s", Unit: "s", Better: "lower", Moves: mvCold},
	{Name: "store.hits", Unit: "count", Better: "higher", Moves: mvCold, Count: true},
	{Name: "store.misses", Unit: "count", Better: "lower", Moves: mvCold, Count: true},
	{Name: "store.corrupt", Unit: "count", Better: "lower", Moves: mvCold, Count: true},
	{Name: "store.get_estimates", Unit: "count", Better: "lower", Moves: mvCold, Count: true},
	{Name: "store.get_estimate_s", Unit: "s", Better: "lower", Moves: mvCold},
	{Name: "store.puts", Unit: "count", Better: "lower", Moves: mvCold, Count: true},
	{Name: "store.put_s", Unit: "s", Better: "lower", Moves: mvCold},
	{Name: "store.put_estimates", Unit: "count", Better: "lower", Moves: mvCold, Count: true},
	{Name: "store.put_estimate_s", Unit: "s", Better: "lower", Moves: mvCold},
	{Name: "store.redundant_puts", Unit: "count", Better: "lower", Moves: mvCold, Count: true},
	{Name: "store.bytes", Unit: "B", Better: "lower", Moves: mvCold, Count: true},

	{Name: "resume.wall_s", Unit: "s", Better: "lower", Moves: mvResume},
	{Name: "resume.points_per_s", Unit: "1/s", Better: "higher", Moves: mvResume},
	{Name: "resume.store_gets", Unit: "count", Better: "lower", Moves: mvResume, Count: true},
	{Name: "resume.store_get_s", Unit: "s", Better: "lower", Moves: mvResume},
	{Name: "resume.store_hits", Unit: "count", Better: "higher", Moves: mvResume, Count: true},
	{Name: "resume.put_estimates", Unit: "count", Better: "lower", Moves: mvResume, Count: true},
	{Name: "resume.put_estimate_s", Unit: "s", Better: "lower", Moves: mvResume},
	{Name: "resume.redundant_puts", Unit: "count", Better: "lower", Moves: mvResume, Count: true},
	{Name: "resume.store_bytes", Unit: "B", Better: "lower", Moves: mvResume, Count: true},

	{Name: "serve.serve_calls", Unit: "count", Better: "lower", Moves: mvServe, Count: true},
	{Name: "serve.serve_s", Unit: "s", Better: "lower", Moves: mvServe},
	{Name: "serve.profile_s", Unit: "s", Better: "lower", Moves: mvServe},
	{Name: "serve.requests", Unit: "count", Better: "higher", Moves: mvServe, Count: true},
	{Name: "serve.dropped", Unit: "count", Better: "lower", Moves: mvServe, Count: true},
	{Name: "serve.picks", Unit: "count", Better: "lower", Moves: mvServe, Count: true},
	{Name: "serve.pick_s", Unit: "s", Better: "lower", Moves: mvServe},
	{Name: "serve.pending_mean", Unit: "requests", Better: "lower", Moves: mvServe, Count: true},
	{Name: "serve.pending_max", Unit: "requests", Better: "lower", Moves: mvServe, Count: true},

	{Name: "runtime.allocs", Unit: "count", Better: "lower", Moves: mvAll},
	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower", Moves: mvAll},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: mvAll},

	{Name: "trace.traced_wall_s", Unit: "s", Better: "lower", Moves: mvOverhead},
	{Name: "trace.untraced_wall_s", Unit: "s", Better: "lower", Moves: mvOverhead},
	{Name: "trace.overhead_s", Unit: "s", Better: "lower", Moves: mvOverhead},
	{Name: "trace.unaccounted_s", Unit: "s", Better: "lower", Moves: mvOverhead},
}

// benchmarkFile is the part of BENCHMARK.json the benchmark checks itself
// against (JSON keys match the field names case-insensitively).
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

// loadBenchmarkFile reads BENCHMARK.json and checks that it declares the
// workloads and metrics this program measures, name for name.
func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := sameMetrics("end_to_end", bf.EndToEnd, endToEnd); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := sameMetrics("per_layer", bf.PerLayer, perLayer); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return nil, fmt.Errorf("%s: workload %q is not implemented", path, w.Name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s: declares %d workloads, the benchmark implements %d", path, len(bf.Workloads), len(workloads))
	}
	return &bf, nil
}

func sameMetrics(section string, got, want []metricDef) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s lists %d metrics, the benchmark reports %d", section, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
			return fmt.Errorf("%s[%d] is %s (%s, %s, bound %v), the benchmark reports %s (%s, %s, bound %v)",
				section, i, g.Name, g.Unit, g.Better, g.Bound, w.Name, w.Unit, w.Better, w.Bound)
		}
	}
	return nil
}
