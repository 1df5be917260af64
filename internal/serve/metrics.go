package serve

import (
	"context"
	"fmt"
	"math"
	"sort"

	"upim/internal/artifact"
)

// Metrics summarize a set of completed requests.
type Metrics struct {
	// Requests counts all arrivals; Dropped counts admission rejections.
	Requests, Dropped int
	// P50MS/P95MS/P99MS are nearest-rank latency percentiles in
	// milliseconds over completed requests.
	P50MS, P95MS, P99MS float64
	// MeanMS is the mean completed-request latency in milliseconds.
	MeanMS float64
	// ThroughputRPS is completed requests per virtual second of makespan.
	ThroughputRPS float64
	// EnergyPerReqUJ is the mean modeled energy per completed request.
	EnergyPerReqUJ float64
	// SLOAttained is the fraction of completed requests that met their
	// tenant's SLO target (dropped requests count as missed).
	SLOAttained float64
}

// TenantMetrics are one tenant's Metrics plus its identity and SLO.
type TenantMetrics struct {
	Tenant   string
	Class    string
	TargetMS float64
	Metrics
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or 0 when sorted is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// Nearest-rank: ceil(p/100 * n), 1-based.
	rank := int(math.Ceil(float64(len(sorted)) * p / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tally accumulates one Metrics' counts and sums over records added in
// ID order.
type tally struct {
	m            Metrics
	sumLat, sumE float64
	met          int
}

// add counts r, judging SLO attainment against target seconds.
func (t *tally) add(r *Record, target float64) {
	t.m.Requests++
	if r.Dropped {
		t.m.Dropped++
		return
	}
	t.sumLat += r.Latency()
	t.sumE += r.EnergyUJ
	if r.SLOMet(target) {
		t.met++
	}
}

// metrics finishes the tally given its completed requests' latencies in
// ascending order.
func (t *tally) metrics(sorted []float64, makespan float64) Metrics {
	m := t.m
	done := len(sorted)
	m.P50MS = percentile(sorted, 50) * 1e3
	m.P95MS = percentile(sorted, 95) * 1e3
	m.P99MS = percentile(sorted, 99) * 1e3
	if done > 0 {
		m.MeanMS = t.sumLat / float64(done) * 1e3
		m.EnergyPerReqUJ = t.sumE / float64(done)
	}
	if makespan > 0 {
		m.ThroughputRPS = float64(done) / makespan
	}
	if m.Requests > 0 {
		m.SLOAttained = float64(t.met) / float64(m.Requests)
	}
	return m
}

// computeMetrics produces per-tenant metrics (in tenant order) and the
// overall aggregate in one pass over the records. Every record belongs to
// exactly one tenant — names are unique, and the generator and the trace
// check take them from tenants — so the overall latencies are the merge
// of the per-tenant sorted ones. Sums run in record order, per tenant and
// overall alike.
func computeMetrics(tenants []tenant, records []Record) ([]TenantMetrics, Metrics) {
	index := make(map[string]int, len(tenants))
	for i, t := range tenants {
		index[t.Name] = i
	}
	per := make([]tally, len(tenants))
	lats := make([][]float64, len(tenants))
	var all tally
	var makespan float64
	for i := range records {
		r := &records[i]
		t := index[r.Tenant]
		per[t].add(r, tenants[t].SLOTarget)
		all.add(r, tenants[t].SLOTarget)
		if r.Dropped {
			continue
		}
		lats[t] = append(lats[t], r.Latency())
		if r.Finish > makespan {
			makespan = r.Finish
		}
	}
	out := make([]TenantMetrics, len(tenants))
	for i, t := range tenants {
		sort.Float64s(lats[i])
		out[i] = TenantMetrics{
			Tenant:   t.Name,
			Class:    t.SLOClass,
			TargetMS: t.SLOTarget * 1e3,
			Metrics:  per[i].metrics(lats[i], makespan),
		}
	}
	overall := merge(lats, func(a, b *float64) bool { return *a < *b })
	return out, all.metrics(overall, makespan)
}

// num renders a full-precision numeric cell: the exact value is what
// refdata comparison sees, the %.6g text is what reports show.
func num(v float64) artifact.Value { return artifact.Raw(fmt.Sprintf("%.6g", v), v) }

// RequestTable renders the per-request latency/energy record — the
// serving analogue of a figure's data table, refdata-pinned at tiny
// scale.
func (r *Result) RequestTable() *artifact.Table {
	tab := &artifact.Table{
		Key:   "serve-requests",
		ID:    "Serve",
		Title: fmt.Sprintf("Per-request record (%s policy, load %.2f)", r.PolicyName, r.Load),
		Scale: r.Scale.String(),
		Columns: []artifact.Column{
			{Name: "id"}, {Name: "tenant"}, {Name: "class"}, {Name: "benchmark"},
			{Name: "arrival", Unit: "ms"}, {Name: "start", Unit: "ms"},
			{Name: "finish", Unit: "ms"}, {Name: "latency", Unit: "ms"},
			{Name: "batch"}, {Name: "energy", Unit: "uJ"}, {Name: "dropped"},
		},
	}
	for _, rec := range r.Records {
		if rec.Dropped {
			tab.AddRow(
				artifact.Int(rec.ID), artifact.Str(rec.Tenant), artifact.Str(rec.Class),
				artifact.Str(rec.Benchmark),
				num(rec.Arrival*1e3), num(0), num(0), num(0),
				artifact.Int(0), num(0), artifact.Int(1),
			)
			continue
		}
		tab.AddRow(
			artifact.Int(rec.ID), artifact.Str(rec.Tenant), artifact.Str(rec.Class),
			artifact.Str(rec.Benchmark),
			num(rec.Arrival*1e3), num(rec.Start*1e3),
			num(rec.Finish*1e3), num(rec.Latency()*1e3),
			artifact.Int(rec.Batch), num(rec.EnergyUJ), artifact.Int(0),
		)
	}
	return tab
}

// SummaryTable renders per-tenant and overall serving metrics.
func (r *Result) SummaryTable() *artifact.Table {
	tab := &artifact.Table{
		Key:   "serve-summary",
		ID:    "Serve",
		Title: fmt.Sprintf("Serving summary (%s policy, load %.2f, %d groups)", r.PolicyName, r.Load, r.Groups),
		Scale: r.Scale.String(),
		Columns: []artifact.Column{
			{Name: "tenant"}, {Name: "class"}, {Name: "requests"}, {Name: "dropped"},
			{Name: "p50", Unit: "ms"}, {Name: "p95", Unit: "ms"}, {Name: "p99", Unit: "ms"},
			{Name: "mean", Unit: "ms"}, {Name: "throughput", Unit: "req/s"},
			{Name: "energy/req", Unit: "uJ"}, {Name: "slo"},
		},
	}
	row := func(name, class string, m Metrics) {
		tab.AddRow(
			artifact.Str(name), artifact.Str(class),
			artifact.Int(m.Requests), artifact.Int(m.Dropped),
			num(m.P50MS), num(m.P95MS), num(m.P99MS),
			num(m.MeanMS), num(m.ThroughputRPS),
			num(m.EnergyPerReqUJ), artifact.Pct(m.SLOAttained),
		)
	}
	for _, t := range r.Tenants {
		row(t.Tenant, t.Class, t.Metrics)
	}
	row("overall", "-", r.Overall)
	return tab
}

// LoadSweep serves the same workload at every (policy, load) pair and
// renders the p50/p99-vs-offered-load artifact — the QoS curve the
// paper's serving argument turns on. The kernels are profiled once, for
// the first cell, and every cell replays against those profiles: neither
// the policy nor the load changes what a kernel costs. Policies are named
// (fresh instances per run via NewPolicy, so stateful policies never leak
// accounting across runs).
func LoadSweep(ctx context.Context, opts Options, policies []string, loads []float64) (*artifact.Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	base := opts.withDefaults()
	tab := &artifact.Table{
		Key:   "serve-load",
		ID:    "Serve",
		Title: "p50/p99 latency vs offered load by policy",
		Scale: base.Scale.String(),
		Columns: []artifact.Column{
			{Name: "policy"}, {Name: "load"}, {Name: "tenant"},
			{Name: "p50", Unit: "ms"}, {Name: "p99", Unit: "ms"},
			{Name: "throughput", Unit: "req/s"}, {Name: "energy/req", Unit: "uJ"},
		},
	}
	var profiles map[string]profile
	for _, name := range policies {
		for _, load := range loads {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			o := opts
			o.Load = load
			// Fresh per-run policy: wfq's served-time state must not carry
			// from one (policy, load) cell to the next.
			p, err := NewPolicy(name, opts.Tenants)
			if err != nil {
				return nil, err
			}
			o.Policy = p
			res, err := run(ctx, o, &profiles)
			if err != nil {
				return nil, fmt.Errorf("serve: load sweep %s@%.2f: %w", name, load, err)
			}
			for _, t := range res.Tenants {
				tab.AddRow(
					artifact.Str(name), num(load), artifact.Str(t.Tenant),
					num(t.P50MS), num(t.P99MS),
					num(t.ThroughputRPS), num(t.EnergyPerReqUJ),
				)
			}
		}
	}
	return tab, nil
}
