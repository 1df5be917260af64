package serve

import "math"

// simulate replays the arrival stream through the scheduler in virtual
// time. The loop is strictly single-threaded and event-driven — the next
// event is always the earlier of the next arrival and the earliest group
// completion — so the outcome is a pure function of (requests, profiles,
// policy), independent of host parallelism and wall clock.
//
// A dispatch costs the policy's Pick plus at most one pass over the
// pending queue, which gathers the batch and closes the gaps it leaves;
// neither allocates once the queue and the batch scratch have grown.
func simulate(opts Options, tenants []tenant, profiles map[string]profile, reqs []Request) *Result {
	records := make([]Record, len(reqs))
	for i, r := range reqs {
		records[i] = Record{Request: r}
	}

	// Resolve the SLO-aware policy's missing class targets from the
	// tenants' resolved (possibly auto-derived) targets, so "slo" means
	// the same thing whether targets were given explicitly or derived.
	if p, ok := opts.Policy.(*sloAware); ok {
		for _, t := range tenants {
			if _, have := p.targets[t.SLOClass]; !have && t.SLOTarget > 0 {
				p.targets[t.SLOClass] = t.SLOTarget
			}
		}
	}

	// busyUntil[g] is when rank group g finishes its in-flight batch; a
	// group serves one batch at a time.
	busyUntil := make([]float64, opts.Groups)
	var pending []*Request // arrival-ordered queue of admitted requests
	var batch []int        // the dispatching batch's record indices
	next := 0              // next arrival index into reqs
	now := 0.0
	makespan := 0.0

	// dispatch fills every idle group from the pending queue at time now.
	dispatch := func() {
		for g := range busyUntil {
			if len(pending) == 0 {
				return
			}
			if busyUntil[g] > now {
				continue
			}
			pick := opts.Policy.Pick(pending, now)
			lead := pending[pick]
			// Extend the picked request into a batch: the first MaxBatch-1
			// other queued requests of the same (tenant, benchmark) ride
			// the same launch — one input staging amortized over all.
			// Everything else stays queued, in arrival order: the runs
			// between batch members slide down over the gaps, and the
			// scan stops once the batch is full and past the pick.
			batch = batch[:0]
			room := opts.MaxBatch - 1 // same-kind companions the lead can take
			kept, from := 0, 0        // pending[:kept] is final; pending[from:] is unscanned
			for i := 0; i < len(pending) && (room > 0 || i <= pick); i++ {
				r := pending[i]
				if i != pick {
					if room == 0 || r.Tenant != lead.Tenant || r.Benchmark != lead.Benchmark {
						continue
					}
					room--
				}
				kept += copy(pending[kept:], pending[from:i])
				from = i + 1
				batch = append(batch, r.ID)
			}
			kept += copy(pending[kept:], pending[from:])
			pending = pending[:kept]

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
			busyUntil[g] = finish
			if finish > makespan {
				makespan = finish
			}
			opts.Policy.Served(lead.Tenant, svc)
		}
	}

	for next < len(reqs) || len(pending) > 0 || anyBusy(busyUntil, now) {
		// Advance virtual time to the next event: the earlier of the next
		// arrival and the earliest in-flight completion.
		tNext := math.Inf(1)
		if next < len(reqs) {
			tNext = reqs[next].Arrival
		}
		for _, t := range busyUntil {
			if t > now && t < tNext {
				tNext = t
			}
		}
		now = tNext

		// Admit every arrival at this instant (tie-ordered by ID). Groups
		// whose batch completes at now are already idle to dispatch, so
		// completions come strictly before same-instant arrivals: a group
		// that frees at t can serve a request arriving at t.
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
	res.Tenants, res.Overall = computeMetrics(tenants, records)
	return res
}

func anyBusy(busyUntil []float64, now float64) bool {
	for _, t := range busyUntil {
		if t > now {
			return true
		}
	}
	return false
}
