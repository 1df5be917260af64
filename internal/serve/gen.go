package serve

import (
	"fmt"
	"math"
	"math/rand"
)

// tenantSeed derives a per-tenant RNG seed from the run seed and the
// tenant's name, so adding a tenant never perturbs another tenant's
// arrival stream (FNV-1a over the name, mixed into the run seed).
func tenantSeed(seed int64, name string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return seed ^ int64(h&math.MaxInt64)
}

// poissonRequests generates every tenant's open-loop Poisson arrival
// stream and merges them into one globally-ordered request sequence.
// Each tenant draws from its own seeded RNG, so streams are independent
// and the merged order is a pure function of (seed, tenants).
func poissonRequests(opts Options, tenants []tenant) []Request {
	streams := make([][]Request, len(tenants))
	for ti, t := range tenants {
		rng := rand.New(rand.NewSource(tenantSeed(opts.Seed, t.Name)))
		stream := make([]Request, t.Requests)
		now := 0.0
		for i := range stream {
			// Exponential inter-arrival gap at the tenant's rate.
			now += rng.ExpFloat64() / t.Rate
			stream[i] = Request{
				Tenant:    t.Name,
				Class:     t.SLOClass,
				Benchmark: t.Mix[rng.Intn(len(t.Mix))],
				Arrival:   now,
			}
		}
		streams[ti] = stream
	}
	// Deterministic merge: by arrival time, ties broken by tenant order
	// (each stream is already arrival-ordered, so a tenant's own requests
	// keep their generation order).
	reqs := merge(streams, func(a, b *Request) bool { return a.Arrival < b.Arrival })
	for i := range reqs {
		reqs[i].ID = i
	}
	return reqs
}

// merge returns the ascending union of the ascending lists. An element
// is taken before an equal one from a later list, so the result is what
// a stable sort of the lists' concatenation would give. Each element
// costs one comparison per list, which suits the handful of tenants a
// run has.
func merge[T any](lists [][]T, less func(a, b *T) bool) []T {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]T, n)
	next := make([]int, len(lists))
	for o := range out {
		best := -1
		for i, l := range lists {
			if next[i] < len(l) && (best < 0 || less(&l[next[i]], &lists[best][next[best]])) {
				best = i
			}
		}
		out[o] = lists[best][next[best]]
		next[best]++
	}
	return out
}

// traceRequests validates an explicit trace and normalizes its IDs. The
// trace replaces generation entirely: arrivals, tenants and benchmarks
// come verbatim from the caller.
func traceRequests(opts Options, tenants []tenant) ([]Request, error) {
	byName := make(map[string]*tenant, len(tenants))
	for i := range tenants {
		byName[tenants[i].Name] = &tenants[i]
	}
	reqs := make([]Request, len(opts.Trace))
	last := math.Inf(-1)
	for i, r := range opts.Trace {
		t, ok := byName[r.Tenant]
		if !ok {
			return nil, fmt.Errorf("serve: trace entry %d: unknown tenant %q", i, r.Tenant)
		}
		inMix := false
		for _, b := range t.Mix {
			if b == r.Benchmark {
				inMix = true
				break
			}
		}
		if !inMix {
			return nil, fmt.Errorf("serve: trace entry %d: benchmark %q not in tenant %q's mix", i, r.Benchmark, r.Tenant)
		}
		if r.Arrival < 0 || math.IsNaN(r.Arrival) || math.IsInf(r.Arrival, 1) {
			return nil, fmt.Errorf("serve: trace entry %d: invalid arrival %v", i, r.Arrival)
		}
		if r.Arrival < last {
			return nil, fmt.Errorf("serve: trace entry %d: arrival %v precedes entry %d (trace must be time-ordered)", i, r.Arrival, i-1)
		}
		last = r.Arrival
		reqs[i] = Request{
			ID:        i,
			Tenant:    r.Tenant,
			Class:     t.SLOClass,
			Benchmark: r.Benchmark,
			Arrival:   r.Arrival,
		}
		if r.Class != "" {
			reqs[i].Class = r.Class
		}
	}
	return reqs, nil
}
