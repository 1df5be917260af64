package serve

import "testing"

// benchWorkload is the benchmark's serving workload replayed against
// synthetic kernel profiles, so no cycle simulation runs: three tenants
// with 3:1:2 shares issuing 20k requests each at offered load 1.2, where
// the queue grows and the policies' Pick scans dominate.
func benchWorkload() (Options, []tenant, map[string]profile) {
	const us = 1e-6
	profiles := map[string]profile{
		"VA":       {inS: 20 * us, perS: 60 * us, inUJ: 4, perUJ: 9},
		"RED":      {inS: 20 * us, perS: 45 * us, inUJ: 4, perUJ: 7},
		"SEL":      {inS: 25 * us, perS: 80 * us, inUJ: 5, perUJ: 11},
		"BS":       {inS: 10 * us, perS: 120 * us, inUJ: 2, perUJ: 15},
		"GEMV":     {inS: 40 * us, perS: 150 * us, inUJ: 8, perUJ: 21},
		"HST-S":    {inS: 20 * us, perS: 90 * us, inUJ: 4, perUJ: 12},
		"SCAN-SSA": {inS: 30 * us, perS: 110 * us, inUJ: 6, perUJ: 14},
	}
	opts := Options{
		Tenants: []Tenant{
			{Name: "alpha", Mix: []string{"VA", "RED", "SEL"}, Weight: 3},
			{Name: "beta", Mix: []string{"BS", "GEMV"}, Weight: 1},
			{Name: "gamma", Mix: []string{"HST-S", "SCAN-SSA"}, Weight: 2},
		},
		Requests: 20000,
		Load:     1.2,
		Seed:     1,
	}.withDefaults()
	return opts, resolveTenants(opts, profiles), profiles
}

func BenchmarkPoissonRequests(b *testing.B) {
	opts, tenants, _ := benchWorkload()
	b.ReportAllocs()
	var n int
	for b.Loop() {
		n = len(poissonRequests(opts, tenants))
	}
	b.ReportMetric(float64(n), "requests/op")
}

func BenchmarkSimulate(b *testing.B) {
	for _, name := range PolicyNames() {
		b.Run(name, func(b *testing.B) {
			opts, tenants, profiles := benchWorkload()
			reqs := poissonRequests(opts, tenants)
			b.ReportAllocs()
			for b.Loop() {
				// A fresh policy per replay: wfq accumulates served time,
				// and the scheduler fills slo's derived targets in.
				p, err := NewPolicy(name, opts.Tenants)
				if err != nil {
					b.Fatal(err)
				}
				opts.Policy = p
				simulate(opts, tenants, profiles, reqs)
			}
			b.ReportMetric(float64(len(reqs)), "requests/op")
		})
	}
}

func BenchmarkComputeMetrics(b *testing.B) {
	opts, tenants, profiles := benchWorkload()
	records := simulate(opts, tenants, profiles, poissonRequests(opts, tenants)).Records
	b.ReportAllocs()
	for b.Loop() {
		computeMetrics(tenants, records)
	}
	b.ReportMetric(float64(len(records)), "requests/op")
}
