package main

import (
	"context"
	"fmt"
	"time"

	"upim/internal/config"
	"upim/internal/core"
	"upim/internal/engine"
	"upim/internal/linker"
	"upim/internal/prim"
	"upim/internal/stats"
)

// probeKernelBuilds assembles every PrIM kernel in every mode it supports
// and links it at the Table I configuration, without a build cache.
func probeKernelBuilds(tr *tracer, root int) (map[string]float64, error) {
	var builds, links float64
	id := tr.begin("kbuild.build", root)
	t0 := time.Now()
	for _, b := range prim.Benchmarks() {
		modes := []config.Mode{config.ModeScratchpad, config.ModeCache}
		if b.SupportsSIMT {
			modes = append(modes, config.ModeSIMT)
		}
		for _, mode := range modes {
			obj, err := b.Build(mode)
			if err != nil {
				return nil, fmt.Errorf("building %s (%v): %w", b.Name, mode, err)
			}
			builds++
			cfg := config.Default()
			cfg.Mode = mode
			if _, err := linker.Link(obj, cfg); err != nil {
				return nil, fmt.Errorf("linking %s (%v): %w", b.Name, mode, err)
			}
			links++
		}
	}
	d := time.Since(t0)
	tr.end(id)
	return map[string]float64{
		"kbuild.build_s": d.Seconds(),
		"kbuild.builds":  builds,
		"kbuild.links":   links,
	}, nil
}

// probeEngine re-runs points one at a time through Engine.RunInArena on one
// recycled arena, timing each run, and sums the work counts of the results'
// statistics. UPMEM points are booked to engine.run; points on another
// architecture backend to hbmpim.run.
func probeEngine(ctx context.Context, tr *tracer, root int, eng *engine.Engine, pts []engine.Point) (map[string]float64, error) {
	v := map[string]float64{}
	arena := core.NewArena()
	var upmem, other time.Duration
	for _, p := range pts {
		name := "engine.run"
		if p.Machine != nil {
			name = "hbmpim.run"
		}
		id := tr.begin(name, root)
		t0 := time.Now()
		res, err := eng.RunInArena(ctx, p, arena)
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Benchmark, err)
		}
		if p.Machine != nil {
			other += d
			v["hbmpim.points"]++
			continue
		}
		upmem += d
		addStats(v, res)
	}
	v["engine.points"] = float64(len(pts))
	v["engine.run_s"] = (upmem + other).Seconds()
	v["hbmpim.run_s"] = other.Seconds()
	if upmem > 0 {
		v["core.kips"] = v["core.instructions"] / upmem.Seconds() / 1e3
	}
	return v, nil
}

// addStats adds one UPMEM result's work counts (summed over its DPUs) to v.
func addStats(v map[string]float64, res *prim.Result) {
	for i := range res.PerDPU {
		s := &res.PerDPU[i]
		v["core.instructions"] += float64(s.Instructions)
		v["core.cycles"] += float64(s.Cycles)
		v["dram.read_bursts"] += float64(s.DRAM.ReadBursts)
		v["dram.write_bursts"] += float64(s.DRAM.WriteBursts)
		v["dram.row_hits"] += float64(s.DRAM.RowHits)
		v["dram.row_conflicts"] += float64(s.DRAM.RowMisses)
		for _, c := range []*stats.Cache{&s.DCache, &s.ICache} {
			v["cache.accesses"] += float64(c.Accesses)
			v["cache.misses"] += float64(c.Misses)
			v["cache.mshr_merges"] += float64(c.MSHRMerges)
		}
		v["mmu.tlb_misses"] += float64(s.MMU.TLBMisses)
		v["mmu.walks"] += float64(s.MMU.TableWalks)
	}
	v["host.launches"] += float64(res.Report.Launches)
	v["host.bytes_in"] += float64(res.Report.BytesIn)
	v["host.bytes_out"] += float64(res.Report.BytesOut)
}
