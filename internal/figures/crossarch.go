package figures

import (
	"context"

	"upim/internal/artifact"
	"upim/internal/config"
	"upim/internal/explore"
	"upim/internal/machine"
)

// crossArchBenchmarks are the workloads the cross-architecture study runs:
// the dense streaming kernels every registered backend supports, so each
// row pair is a true head-to-head.
var crossArchBenchmarks = []string{"GEMV", "VA"}

// CrossArch is the flagship pathfinding artifact the paper's title
// promises: the same workloads executed on the cycle-exact UPMEM DPU and
// on the HBM-PIM-style bank-level MAC backend, at one and two compute
// sites, scored on modeled time, energy (each architecture priced under
// its own committed TechProfile) and hardware cost — with the
// per-benchmark Pareto frontier marked. The experiment runs through
// internal/explore, so its rows are the same numbers `upim pathfind -axes
// "arch=upmem,hbm-pim;dpus=1,2"` produces.
func CrossArch(ctx context.Context, o Options) (*Table, error) {
	s := explore.NewSpace(crossArchBenchmarks,
		explore.Archs(machine.ArchUPMEM, machine.ArchHBMPIM),
		explore.DPUs(1, 2))
	s.Base = config.Default()
	s.Scale = o.Scale
	x, err := explore.New(explore.Options{Parallelism: o.Parallelism, Cache: sharedCache}).Explore(ctx, s)
	if err != nil {
		return nil, err
	}

	goals := []explore.Goal{explore.GoalTime(), explore.GoalEnergy(nil), explore.GoalCost()}
	tab := &Table{
		Key:   "crossarch",
		ID:    "CrossArch",
		Title: "Cross-architecture Pareto: UPMEM DPU vs HBM-PIM bank-level MAC (time, energy, cost)",
		Scale: o.Scale.String(),
		Columns: []artifact.Column{
			{Name: "benchmark"}, {Name: "arch"}, {Name: "sites"}, {Name: "cost"},
			{Name: "kernel", Unit: "ms"}, {Name: "total", Unit: "ms"},
			{Name: "energy", Unit: "uJ"}, {Name: "EDP", Unit: "uJ*ms"},
			{Name: "frontier"},
		},
	}
	for _, bench := range crossArchBenchmarks {
		group := x.Outcomes[:0:0]
		for _, out := range x.Outcomes {
			if out.Point.Benchmark == bench {
				group = append(group, out)
			}
		}
		onFront := map[int]bool{}
		for _, f := range explore.Pareto(group, goals...) {
			onFront[f.Index] = true
		}
		for _, out := range group {
			if out.Err != nil || out.Result == nil {
				continue
			}
			total := out.Result.Report.Total()
			e := out.Result.Energy(nil)
			marker := ""
			if onFront[out.Index] {
				marker = "*"
			}
			tab.AddRow(
				artifact.Str(bench),
				artifact.Str(out.Point.Labels[0]),
				artifact.Int(out.Result.DPUs),
				artifact.Num(out.Point.Cost),
				artifact.Num(out.Result.Report.KernelSeconds*1e3),
				artifact.Num(total*1e3),
				artifact.Num(e.MicroJoules()),
				artifact.Num(e.EDPMicroJouleMS(total)),
				artifact.Str(marker),
			)
		}
	}
	return tab, nil
}
