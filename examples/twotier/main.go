// Two-tier pathfinding: triage a design space with the calibrated
// analytical estimator, then spend cycle-exact simulation only on the
// estimated Pareto band. The space below is the 5-axis acceptance space
// (108 feasible points); the plan step predicts the estimate/simulate
// split without simulating anything, the tiered exploration then
// simulates ~24% of the space, and the resulting cycle-exact frontier is
// checked against an exhaustive exploration of the same space — the
// accuracy contract the band slack buys.
//
// Run with: go run ./examples/twotier
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"upim"
)

func main() {
	space := upim.NewDesignSpace([]string{"VA"},
		upim.AxisTasklets(1, 4, 16),
		upim.AxisFrequencyMHz(350, 700),
		upim.AxisLinkScale(1, 2, 4),
		upim.AxisILP("base", "D", "DRSF"),
		upim.AxisModes(upim.ModeScratchpad, upim.ModeCache),
	)
	space.Scale = upim.ScaleTiny

	// The estimator: the committed calibration under the committed energy
	// profile. Any energy/EDP goals must be priced by the same profile —
	// ExploreTiered enforces it.
	est, err := upim.NewEstimator(nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	topts := upim.TieredExploreOptions{
		Estimator: est,
		Band:      0.03, // simulate everything within 3% of the estimated frontier
		Goals:     []upim.ExploreGoal{upim.GoalTime(), upim.GoalCost()},
	}

	// Step 1: plan. Pure tier-A triage — microseconds, no simulation, no
	// store — predicting how much tier B will cost.
	plan, err := upim.PlanTieredExploration(space, topts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %d feasible points; band of %d (%.0f%%) would simulate, %d resolve by estimate\n",
		plan.Feasible, plan.Band, 100*float64(plan.Band)/float64(plan.Feasible), plan.EstimateOnly)

	// Step 2: explore in two tiers.
	ctx := context.Background()
	x, tri, err := upim.ExploreTiered(ctx, space, upim.ExploreOptions{}, topts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tiered: simulated %d/%d, estimator max rel err on the band %.2f%%\n",
		x.Simulated, tri.Feasible, tri.MaxRelErr*100)

	// Step 3: the frontier is cycle-exact — estimate-fidelity outcomes never
	// rank. Compare against paying full price for the whole space.
	full, err := upim.Explore(ctx, space, upim.ExploreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	tieredFront := designs(upim.ParetoFront(x.Outcomes, topts.Goals...))
	fullFront := designs(upim.ParetoFront(full.Outcomes, topts.Goals...))
	fmt.Printf("frontier: %d designs from %d simulations; exhaustive finds %d from %d\n",
		len(tieredFront), x.Simulated, len(fullFront), full.Simulated)
	all := make([]string, 0, len(fullFront))
	for d := range fullFront {
		all = append(all, d)
	}
	sort.Strings(all)
	for _, d := range all {
		marker := "MISSED"
		if tieredFront[d] {
			marker = "found"
		}
		fmt.Printf("  %-55s %s\n", d, marker)
	}

	// The triage summary as a standard artifact table (upim pathfind -tier2
	// prints the same and -out exports it as CSV/JSON/Markdown).
	fmt.Println()
	x.TriageTable(tri).Fprint(log.Writer())
}

// designs keys a frontier by its design labels, the stable identity for
// comparing frontiers across explorations.
func designs(front []upim.ExploreOutcome) map[string]bool {
	out := make(map[string]bool, len(front))
	for _, o := range front {
		out[o.Point.Benchmark+" "+o.Point.Design] = true
	}
	return out
}
