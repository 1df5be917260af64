package serve

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file keeps the straightforward replay the optimized one must
// match, verbatim apart from the ref prefix on its identifiers: a
// reflective stable sort for the arrival merge, a map and a fresh batch
// slice per dispatch, two map lookups per pending request in the
// built-in Picks, and per-tenant record copies in the metrics.
// TestReplayMatchesReference runs both over a seeded grid and requires
// exactly equal results.

// refPoissonRequests generates every tenant's open-loop Poisson arrival
// stream and merges them into one globally-ordered request sequence.
// Each tenant draws from its own seeded RNG, so streams are independent
// and the merged order is a pure function of (seed, tenants).
func refPoissonRequests(opts Options, tenants []tenant) []Request {
	var reqs []Request
	for ti, t := range tenants {
		rng := rand.New(rand.NewSource(tenantSeed(opts.Seed, t.Name)))
		now := 0.0
		for i := 0; i < t.Requests; i++ {
			// Exponential inter-arrival gap at the tenant's rate.
			now += rng.ExpFloat64() / t.Rate
			reqs = append(reqs, Request{
				Tenant:    t.Name,
				Class:     t.SLOClass,
				Benchmark: t.Mix[rng.Intn(len(t.Mix))],
				Arrival:   now,
				// ID temporarily holds the tenant index for the merge
				// tie-break; reassigned below.
				ID: ti,
			})
		}
	}
	// Deterministic merge: by arrival time, ties broken by tenant order
	// (stable within a tenant because each stream is already ordered).
	sort.SliceStable(reqs, func(i, j int) bool {
		if reqs[i].Arrival != reqs[j].Arrival {
			return reqs[i].Arrival < reqs[j].Arrival
		}
		return reqs[i].ID < reqs[j].ID
	})
	for i := range reqs {
		reqs[i].ID = i
	}
	return reqs
}

// refGroup is one disjoint DPU rank group: it serves one batch at a time
// and is free again at busyUntil.
type refGroup struct {
	busyUntil float64
	// batch holds the in-flight requests' record indices.
	batch []int
}

// refSimulate replays the arrival stream through the scheduler in virtual
// time. The loop is strictly single-threaded and event-driven — the next
// event is always the earlier of the next arrival and the earliest group
// completion — so the outcome is a pure function of (requests, profiles,
// policy), independent of host parallelism and wall clock.
func refSimulate(opts Options, tenants []tenant, profiles map[string]profile, reqs []Request) *Result {
	records := make([]Record, len(reqs))
	for i, r := range reqs {
		records[i] = Record{Request: r}
	}

	// Resolve the SLO-aware policy's missing class targets from the
	// tenants' resolved (possibly auto-derived) targets, so "slo" means
	// the same thing whether targets were given explicitly or derived.
	if p, ok := opts.Policy.(*refSLOAware); ok {
		for _, t := range tenants {
			if _, have := p.targets[t.SLOClass]; !have && t.SLOTarget > 0 {
				p.targets[t.SLOClass] = t.SLOTarget
			}
		}
	}

	groups := make([]refGroup, opts.Groups)
	var pending []*Request // arrival-ordered queue of admitted requests
	next := 0              // next arrival index into reqs
	now := 0.0
	makespan := 0.0

	// dispatch fills every idle group from the pending queue at time now.
	dispatch := func() {
		for gi := range groups {
			if len(pending) == 0 {
				return
			}
			g := &groups[gi]
			if g.busyUntil > now {
				continue
			}
			pick := opts.Policy.Pick(pending, now)
			lead := pending[pick]
			// Extend the picked request into a batch: queued requests of
			// the same (tenant, benchmark) ride the same launch, in queue
			// order, up to MaxBatch — one input staging amortized over all.
			batch := []int{lead.ID}
			for i := 0; i < len(pending) && len(batch) < opts.MaxBatch; i++ {
				r := pending[i]
				if r.ID != lead.ID && r.Tenant == lead.Tenant && r.Benchmark == lead.Benchmark {
					batch = append(batch, r.ID)
				}
			}
			// Remove the batch from the queue, preserving arrival order.
			inBatch := make(map[int]bool, len(batch))
			for _, id := range batch {
				inBatch[id] = true
			}
			kept := pending[:0]
			for _, r := range pending {
				if !inBatch[r.ID] {
					kept = append(kept, r)
				}
			}
			pending = kept

			p := profiles[lead.Benchmark]
			k := len(batch)
			svc := p.service(k)
			finish := now + svc
			euj := p.energyPerReq(k)
			for _, id := range batch {
				rec := &records[id]
				rec.Start = now
				rec.Finish = finish
				rec.Batch = k
				rec.EnergyUJ = euj
			}
			g.busyUntil = finish
			g.batch = append(g.batch[:0], batch...)
			if finish > makespan {
				makespan = finish
			}
			opts.Policy.Served(lead.Tenant, svc)
		}
	}

	for next < len(reqs) || len(pending) > 0 || refAnyBusy(groups, now) {
		// Advance virtual time to the next event: the earlier of the next
		// arrival and the earliest in-flight completion.
		tNext := math.Inf(1)
		if next < len(reqs) {
			tNext = reqs[next].Arrival
		}
		for gi := range groups {
			if g := &groups[gi]; g.busyUntil > now && g.busyUntil < tNext {
				tNext = g.busyUntil
			}
		}
		now = tNext

		// Completions strictly before new arrivals at the same instant:
		// a group that frees at t can serve a request arriving at t.
		for gi := range groups {
			if g := &groups[gi]; len(g.batch) > 0 && g.busyUntil <= now {
				g.batch = g.batch[:0]
			}
		}
		// Admit every arrival at this instant (tie-ordered by ID).
		for next < len(reqs) && reqs[next].Arrival <= now {
			if opts.MaxQueue > 0 && len(pending) >= opts.MaxQueue {
				records[reqs[next].ID].Dropped = true
			} else {
				pending = append(pending, &reqs[next])
			}
			next++
		}
		dispatch()
	}

	res := &Result{
		PolicyName: opts.Policy.Name(),
		Groups:     opts.Groups,
		GroupDPUs:  opts.GroupDPUs,
		Load:       opts.Load,
		Scale:      opts.Scale,
		Records:    records,
		Makespan:   makespan,
	}
	res.Tenants, res.Overall = refComputeMetrics(tenants, records)
	return res
}

func refAnyBusy(groups []refGroup, now float64) bool {
	for i := range groups {
		if groups[i].busyUntil > now {
			return true
		}
	}
	return false
}

// refMetricsOf computes Metrics over recs, judging SLO attainment against
// target (per-tenant target, or 0 overall to use each record's tenant
// target via targets).
func refMetricsOf(recs []Record, makespan float64, targets map[string]float64) Metrics {
	var m Metrics
	var lats []float64
	var sumLat, sumE float64
	met := 0
	for _, r := range recs {
		m.Requests++
		if r.Dropped {
			m.Dropped++
			continue
		}
		l := r.Latency()
		lats = append(lats, l)
		sumLat += l
		sumE += r.EnergyUJ
		if r.SLOMet(targets[r.Tenant]) {
			met++
		}
	}
	sort.Float64s(lats)
	done := len(lats)
	m.P50MS = percentile(lats, 50) * 1e3
	m.P95MS = percentile(lats, 95) * 1e3
	m.P99MS = percentile(lats, 99) * 1e3
	if done > 0 {
		m.MeanMS = sumLat / float64(done) * 1e3
		m.EnergyPerReqUJ = sumE / float64(done)
	}
	if makespan > 0 {
		m.ThroughputRPS = float64(done) / makespan
	}
	if m.Requests > 0 {
		m.SLOAttained = float64(met) / float64(m.Requests)
	}
	return m
}

// refComputeMetrics produces per-tenant metrics (in tenant order) and the
// overall aggregate.
func refComputeMetrics(tenants []tenant, records []Record) ([]TenantMetrics, Metrics) {
	targets := make(map[string]float64, len(tenants))
	for _, t := range tenants {
		targets[t.Name] = t.SLOTarget
	}
	var makespan float64
	for _, r := range records {
		if !r.Dropped && r.Finish > makespan {
			makespan = r.Finish
		}
	}
	out := make([]TenantMetrics, len(tenants))
	for i, t := range tenants {
		var recs []Record
		for _, r := range records {
			if r.Tenant == t.Name {
				recs = append(recs, r)
			}
		}
		out[i] = TenantMetrics{
			Tenant:   t.Name,
			Class:    t.SLOClass,
			TargetMS: t.SLOTarget * 1e3,
			Metrics:  refMetricsOf(recs, makespan, targets),
		}
	}
	return out, refMetricsOf(records, makespan, targets)
}

type refWeightedFair struct {
	weights map[string]float64
	served  map[string]float64
}

func (*refWeightedFair) Name() string { return "wfq" }

func (p *refWeightedFair) share(tenant string) float64 {
	if w, ok := p.weights[tenant]; ok {
		return w
	}
	return 1
}

func (p *refWeightedFair) Pick(pending []*Request, _ float64) int {
	best := 0
	bestV := p.served[pending[0].Tenant] / p.share(pending[0].Tenant)
	for i := 1; i < len(pending); i++ {
		v := p.served[pending[i].Tenant] / p.share(pending[i].Tenant)
		if v < bestV {
			best, bestV = i, v
		}
	}
	return best
}

func (p *refWeightedFair) Served(tenant string, seconds float64) {
	p.served[tenant] += seconds
}

type refSLOAware struct {
	targets map[string]float64
}

func (*refSLOAware) Name() string { return "slo" }

func (p *refSLOAware) Pick(pending []*Request, _ float64) int {
	best := 0
	bestD := pending[0].Arrival + p.targets[pending[0].Class]
	for i := 1; i < len(pending); i++ {
		d := pending[i].Arrival + p.targets[pending[i].Class]
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func (*refSLOAware) Served(string, float64) {}

// lastPolicy picks the newest pending request: a policy whose picks sit
// at the far end of the queue, behind any same-kind batch companions.
type lastPolicy struct{}

func (lastPolicy) Name() string                           { return "last" }
func (lastPolicy) Pick(pending []*Request, _ float64) int { return len(pending) - 1 }
func (lastPolicy) Served(string, float64)                 {}

// pickLog wraps a policy and records every Pick call's virtual time and
// pending queue, so two replays can be shown to consult the policy
// identically.
type pickLog struct {
	Policy
	calls []string
}

func (p *pickLog) Pick(pending []*Request, now float64) int {
	ids := make([]int, len(pending))
	for i, r := range pending {
		ids[i] = r.ID
	}
	i := p.Policy.Pick(pending, now)
	p.calls = append(p.calls, fmt.Sprint(now, ids, i))
	return i
}

// replayCase is one point of the differential grid.
type replayCase struct {
	opts     Options
	policy   string
	profiles map[string]profile
}

// policies builds the named policy twice — the current implementation
// and its reference copy — from the same parameters.
func (c replayCase) policies(t *testing.T) (cur, ref Policy) {
	switch c.policy {
	case "last":
		return lastPolicy{}, lastPolicy{}
	case "fifo":
		return FIFO(), FIFO()
	}
	p, err := NewPolicy(c.policy, c.opts.Tenants)
	if err != nil {
		t.Fatal(err)
	}
	clone := func(m map[string]float64) map[string]float64 {
		out := make(map[string]float64, len(m))
		for k, v := range m {
			out[k] = v
		}
		return out
	}
	switch p := p.(type) {
	case *weightedFair:
		return p, &refWeightedFair{weights: clone(p.weights), served: map[string]float64{}}
	case *sloAware:
		return p, &refSLOAware{targets: clone(p.targets)}
	}
	t.Fatalf("policy %q has no reference", c.policy)
	return nil, nil
}

// randomCase draws one workload: 1-4 tenants (the first two sharing an
// SLO class when there are several), Poisson or trace arrivals, and the
// scheduler's knobs across their interesting ranges. Service times and
// trace arrivals are multiples of a power of two, so completions and
// arrivals coincide exactly and every tie-break is exercised.
func randomCase(rng *rand.Rand) replayCase {
	const tick = 1.0 / 1024
	benches := []string{"VA", "BS", "RED", "GEMV"}
	profiles := make(map[string]profile, len(benches))
	for _, b := range benches {
		profiles[b] = profile{
			inS:   float64(rng.Intn(4)) * tick,
			perS:  float64(1+rng.Intn(6)) * tick,
			inUJ:  float64(rng.Intn(50)),
			perUJ: 1 + float64(rng.Intn(50)),
		}
	}
	opts := Options{
		Groups:   1 + rng.Intn(3),
		MaxBatch: 1 + rng.Intn(8),
		Requests: 10 + rng.Intn(60),
		Load:     0.3 + 2.2*rng.Float64(),
		Seed:     rng.Int63(),
	}
	if rng.Intn(3) == 0 {
		opts.MaxQueue = 2 + rng.Intn(12)
	}
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		tn := Tenant{
			Name:   fmt.Sprintf("t%d", i),
			Weight: float64(rng.Intn(4)),
		}
		for _, b := range rng.Perm(len(benches))[:1+rng.Intn(2)] {
			tn.Mix = append(tn.Mix, benches[b])
		}
		if i < 2 && n > 1 {
			tn.SLOClass = "shared"
		}
		if rng.Intn(2) == 0 {
			tn.SLOTarget = float64(1+rng.Intn(40)) * tick
		}
		if rng.Intn(4) == 0 {
			tn.Rate = 50 + 500*rng.Float64()
		}
		if rng.Intn(4) == 0 {
			tn.Requests = 5 + rng.Intn(40)
		}
		opts.Tenants = append(opts.Tenants, tn)
	}
	if rng.Intn(2) == 0 {
		// Trace mode: time-ordered arrivals on the tick grid, many of them
		// simultaneous, with per-request class overrides.
		classes := []string{"", "", "shared", "adhoc"}
		at := 0.0
		for i := 0; i < opts.Requests*n; i++ {
			at += float64(rng.Intn(3)) * tick
			tn := opts.Tenants[rng.Intn(n)]
			opts.Trace = append(opts.Trace, Request{
				Tenant:    tn.Name,
				Class:     classes[rng.Intn(len(classes))],
				Benchmark: tn.Mix[rng.Intn(len(tn.Mix))],
				Arrival:   at,
			})
		}
	}
	policies := []string{"fifo", "wfq", "slo", "last"}
	return replayCase{opts: opts.withDefaults(), policy: policies[rng.Intn(len(policies))], profiles: profiles}
}

// TestReplayMatchesReference is the differential test of the replay:
// requests, records, per-tenant and overall metrics and makespan must
// equal the reference's exactly, and with the policy wrapped (which also
// hides the slo policy from the scheduler's target fill-in), every Pick
// must see the same time and the same pending queue.
func TestReplayMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 300; n++ {
		c := randomCase(rng)
		name := fmt.Sprintf("case %d (%s, %d tenants, trace %v)", n, c.policy, len(c.opts.Tenants), len(c.opts.Trace) > 0)
		tenants := resolveTenants(c.opts, c.profiles)
		var reqs, refReqs []Request
		if len(c.opts.Trace) > 0 {
			var err error
			if reqs, err = traceRequests(c.opts, tenants); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			refReqs = reqs
		} else {
			reqs, refReqs = poissonRequests(c.opts, tenants), refPoissonRequests(c.opts, tenants)
			if !slices.Equal(reqs, refReqs) {
				t.Fatalf("%s: Poisson requests differ from the reference", name)
			}
		}
		for _, logged := range []bool{false, true} {
			cur, ref := c.policies(t)
			var curLog, refLog *pickLog
			if logged {
				curLog, refLog = &pickLog{Policy: cur}, &pickLog{Policy: ref}
				cur, ref = curLog, refLog
			}
			o := c.opts
			o.Policy = cur
			got := simulate(o, tenants, c.profiles, append([]Request(nil), reqs...))
			o.Policy = ref
			want := refSimulate(o, tenants, c.profiles, append([]Request(nil), refReqs...))
			if !slices.Equal(got.Records, want.Records) {
				t.Fatalf("%s (logged %v): records differ from the reference", name, logged)
			}
			if !slices.Equal(got.Tenants, want.Tenants) || got.Overall != want.Overall || got.Makespan != want.Makespan {
				t.Fatalf("%s (logged %v): metrics differ:\n got %+v %+v %v\nwant %+v %+v %v",
					name, logged, got.Tenants, got.Overall, got.Makespan, want.Tenants, want.Overall, want.Makespan)
			}
			if logged && !slices.Equal(curLog.calls, refLog.calls) {
				t.Fatalf("%s: Pick calls differ from the reference (%d vs %d calls)", name, len(curLog.calls), len(refLog.calls))
			}
		}
	}
}

// TestMergeMatchesStableSort pins merge's tie-break: with many equal
// keys across and within lists, it must order elements exactly as a
// stable sort by (key, list index) of the concatenation does.
func TestMergeMatchesStableSort(t *testing.T) {
	type item struct{ key, list, seq int }
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 100; n++ {
		lists := make([][]item, 1+rng.Intn(5))
		var all []item
		for li := range lists {
			key := 0
			for s := rng.Intn(20); s > 0; s-- {
				key += rng.Intn(3)
				it := item{key: key, list: li, seq: s}
				lists[li] = append(lists[li], it)
				all = append(all, it)
			}
		}
		sort.SliceStable(all, func(i, j int) bool {
			if all[i].key != all[j].key {
				return all[i].key < all[j].key
			}
			return all[i].list < all[j].list
		})
		got := merge(lists, func(a, b *item) bool { return a.key < b.key })
		if !slices.Equal(got, all) {
			t.Fatalf("merge of %v = %v, want %v", lists, got, all)
		}
	}
}
