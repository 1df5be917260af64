package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"

	"upim/internal/config"
	"upim/internal/engine"
	"upim/internal/figures"
	"upim/internal/prim"
	"upim/internal/serve"
)

// serveRequests is the per-tenant request count of every Serve call.
const serveRequests = 20000

var (
	servePolicies = []string{"fifo", "wfq", "slo"}
	serveLoads    = []float64{0.5, 0.9, 1.2}
)

// serveWorkload serves three tenants for every (policy, offered load) pair.
//
// The arrival stream decides how long the queues grow at load 1.2, and with
// it how much work a pass does: across seeds the summed queue length the
// policies scan varies by about ±25%. So an untraced run replays a different
// stream each pass, pass i using arrivalSeed(seed, i), and its median
// covers many streams. A traced run replays the stream of pass 0 every pass,
// so its work counts repeat exactly.
type serveWorkload struct {
	seed    int64
	par     int
	traced  bool
	passes  int
	cache   *prim.BuildCache
	tenants []serve.Tenant
}

func newServe(c runConfig) (workload, error) {
	return &serveWorkload{
		seed:   c.seed,
		par:    c.par,
		traced: c.traced,
		tenants: []serve.Tenant{
			{Name: "alpha", Mix: []string{"VA", "RED", "SEL"}, Weight: 3},
			{Name: "beta", Mix: []string{"BS", "GEMV"}, Weight: 1},
			{Name: "gamma", Mix: []string{"HST-S", "SCAN-SSA"}, Weight: 2},
		},
	}, nil
}

// arrivalSeed derives the arrival seed of a run's pass i from the workload
// seed.
func arrivalSeed(seed int64, i int) int64 {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	h := fnv.New64a()
	h.Write(b[:]) // a hash.Hash never returns an error
	return int64(h.Sum64() >> 1)
}

// setup builds the profiled kernels into the run's cache with one untimed
// pass.
func (w *serveWorkload) setup(ctx context.Context) error {
	w.cache = prim.NewBuildCache()
	r := w.pass(ctx, startPass(nil))
	if r.failed > 0 {
		return fmt.Errorf("warm-up pass: %d of %d serve calls failed", r.failed, r.attempted)
	}
	return nil
}

func (w *serveWorkload) pass(ctx context.Context, p *pass) passResult {
	seed := arrivalSeed(w.seed, 0)
	if !w.traced {
		seed = arrivalSeed(w.seed, w.passes)
		w.passes++
	}
	hits := w.cache.Stats().Hits
	var (
		results []*serve.Result
		errs    []error
		picks   []*timedPolicy
	)
	for _, name := range servePolicies {
		for _, load := range serveLoads {
			pol, err := serve.NewPolicy(name, w.tenants)
			if err != nil {
				results, errs = append(results, nil), append(errs, err)
				continue
			}
			if p.traced() {
				tp := &timedPolicy{Policy: pol}
				picks = append(picks, tp)
				pol = tp
			}
			id := p.begin("serve.serve")
			res, err := serve.Serve(ctx, serve.Options{
				Tenants:     w.tenants,
				Policy:      pol,
				Requests:    serveRequests,
				Load:        load,
				Seed:        seed,
				Scale:       prim.ScaleTiny,
				Parallelism: w.par,
				Cache:       w.cache,
			})
			p.end(id)
			if p.traced() {
				tp := picks[len(picks)-1]
				p.tr.addLeaf(id, "serve.pick", tp.picks.calls, tp.picks.total)
			}
			results = append(results, res)
			errs = append(errs, err)
		}
	}
	p.stop()

	r := passResult{attempted: len(results)}
	generated := serveRequests * len(w.tenants)
	var requests, dropped int
	for i, res := range results {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", errs[i])
			r.failed++
			continue
		}
		if err := checkServed(res, generated); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: serve %s@%.2f: %v\n", res.PolicyName, res.Load, err)
			r.failed++
		}
		requests += len(res.Records)
		for i := range res.Records {
			if res.Records[i].Dropped {
				dropped++
			}
		}
	}
	r.requests = float64(requests)
	if !p.traced() {
		return r
	}
	var n, sum, most int64
	for _, tp := range picks {
		n += tp.picks.calls
		sum += tp.pendSum
		most = max(most, tp.pendMax)
	}
	r.counts = map[string]float64{
		"serve.serve_calls":  float64(len(results)),
		"serve.requests":     float64(requests),
		"serve.dropped":      float64(dropped),
		"serve.picks":        float64(n),
		"serve.pending_mean": float64(sum) / float64(max(n, 1)),
		"serve.pending_max":  float64(most),
		"kbuild.cache_hits":  float64(w.cache.Stats().Hits - hits),
	}
	return r
}

// checkServed checks one call's conservation: every generated request is
// recorded once, in ID order, and either completed (after it arrived) or
// dropped.
func checkServed(res *serve.Result, generated int) error {
	if len(res.Records) != generated {
		return fmt.Errorf("%d records for %d generated requests", len(res.Records), generated)
	}
	completed, dropped := 0, 0
	for i, rec := range res.Records {
		if rec.ID != i {
			return fmt.Errorf("record %d has ID %d", i, rec.ID)
		}
		switch {
		case rec.Dropped:
			dropped++
		case rec.Start >= rec.Arrival && rec.Finish > rec.Start:
			completed++
		}
	}
	if completed+dropped != generated {
		return fmt.Errorf("completed %d + dropped %d != generated %d", completed, dropped, generated)
	}
	return nil
}

// probe re-profiles the workload's kernels once, as every Serve call does:
// one RunInArena per distinct kernel on the serving configuration.
func (w *serveWorkload) probe(ctx context.Context, tr *tracer, root int) (map[string]float64, error) {
	v, err := probeKernelBuilds(tr, root)
	if err != nil {
		return nil, err
	}
	cfg := config.Default()
	cfg.MMU.Enable = true
	cfg.MMU.Prefault = false
	var pts []engine.Point
	for _, tn := range w.tenants {
		for _, b := range tn.Mix {
			pts = append(pts, engine.Point{Benchmark: b, Config: cfg, DPUs: 1, Scale: prim.ScaleTiny})
		}
	}
	ev, err := probeEngine(ctx, tr, root, engine.NewWithCache(1, w.cache), pts)
	if err != nil {
		return nil, err
	}
	for k, x := range ev {
		v[k] = x
	}
	v["serve.profile_s"] = ev["engine.run_s"]
	return v, nil
}

// finish checks the committed tiny serving configuration against its
// references: the request and summary tables of one FIFO run, and the
// fifo/wfq load sweep.
func (w *serveWorkload) finish(ctx context.Context) (int, int) {
	opts := serve.Options{
		Tenants: []serve.Tenant{
			{Name: "alpha", Mix: []string{"VA", "RED"}, Weight: 3},
			{Name: "beta", Mix: []string{"BS"}, Weight: 1},
		},
		Policy:      serve.FIFO(),
		Groups:      2,
		GroupDPUs:   1,
		MaxBatch:    4,
		Requests:    16,
		Load:        0.7,
		Seed:        1,
		Scale:       prim.ScaleTiny,
		Parallelism: w.par,
		Cache:       w.cache,
	}
	const tables = 3
	res, err := serve.Serve(ctx, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve reference run: %v\n", err)
		return tables, tables
	}
	load, err := serve.LoadSweep(ctx, opts, []string{"fifo", "wfq"}, []float64{0.5, 0.8, 1.1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve reference load sweep: %v\n", err)
		return tables, tables
	}
	failed := 0
	for _, tab := range []*figures.Table{res.RequestTable(), res.SummaryTable(), load} {
		if err := figures.Check(tab, checkEps); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: serve reference: %v\n", err)
			failed++
		}
	}
	return tables, failed
}
