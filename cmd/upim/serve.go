package main

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"upim"
	"upim/internal/prim"
)

// serveDoc documents the serve subcommand's workload and tenant grammar.
const serveDoc = `The workload is co-located tenants issuing PrIM kernels as an open-loop
Poisson stream; a host-side scheduler batches and places them on disjoint
DPU rank groups. Runs are virtual-time deterministic: the same flags
always produce byte-identical artifacts, at any -jobs.

Tenant grammar (-tenants): semicolon-separated "name=BENCH+BENCH[:weight]":

  upim serve -tenants "alpha=VA+RED:3;beta=BS:1" -policy wfq -load 0.9
  upim serve -loads 0.5,0.7,0.9,1.1 -policies fifo,wfq,slo -out report
`

// cmdServe evaluates the simulated system as a multi-tenant server under
// an open-loop request stream instead of a single closed run.
func cmdServe(c *cli, args []string) int {
	fs := c.fs
	var (
		tenants  = fs.String("tenants", "alpha=VA+RED:3;beta=BS:1", "tenant spec: name=BENCH+BENCH[:weight], semicolon-separated")
		policy   = fs.String("policy", "fifo", "scheduling policy: "+strings.Join(upim.SchedulingPolicyNames(), ", "))
		groups   = fs.Int("groups", 2, "disjoint DPU rank groups")
		gdpus    = fs.Int("groupdpus", 1, "DPUs per rank group")
		batch    = fs.Int("batch", 4, "max same-kind requests per launch (1 disables batching)")
		requests = fs.Int("requests", 16, "requests per tenant")
		load     = fs.Float64("load", 0.7, "offered load as a fraction of aggregate group capacity")
		seed     = fs.Int64("seed", 1, "arrival-stream seed")
		scale    = fs.String("scale", "tiny", "dataset scale: tiny, small or paper")
		jobs     = fs.Int("jobs", 0, "concurrent profiling simulations (0 = GOMAXPROCS; never affects results)")
		maxQueue = fs.Int("maxqueue", 0, "admission-control queue bound (0 = unbounded)")
		loads    = fs.String("loads", "", "comma-separated offered loads: also produce the p50/p99-vs-load artifact")
		policies = fs.String("policies", "fifo,wfq", "policies for the -loads sweep")
		out      = fs.String("out", "", "write a browsable report (CSV+JSON+Markdown) into this directory")
		check    = fs.Bool("check", false, "validate artifacts against the committed tiny-scale reference")
		eps      = fs.Float64("eps", 0, "relative tolerance for -check (0 = the 1% default)")
		writeref = fs.String("writeref", "", "write reference JSON artifacts into this directory (maintainers only)")
	)
	if code, ok := c.parse(args); !ok {
		return code
	}
	sc, err := prim.ParseScale(*scale)
	if err != nil {
		return c.fail(2, err)
	}
	art := artifacts{out: *out, writeref: *writeref, check: *check, eps: *eps, spaced: true}
	if err := art.validate(); err != nil {
		return c.fail(2, err)
	}
	tn, err := parseTenants(*tenants)
	if err != nil {
		return c.fail(2, err)
	}
	pol, err := upim.NewSchedulingPolicy(*policy, tn)
	if err != nil {
		return c.fail(2, err)
	}
	var ls []float64
	var sweep []string
	if *loads != "" {
		if ls, err = parseLoads(*loads); err != nil {
			return c.fail(2, err)
		}
		// Every sweep policy is checked before the first simulation, so a
		// typo costs nothing.
		sweep = strings.Split(*policies, ",")
		for _, name := range sweep {
			if _, err := upim.NewSchedulingPolicy(name, tn); err != nil {
				return c.fail(2, err)
			}
		}
	} else if c.set("policies") {
		return c.fail(2, errors.New("-policies only affects the -loads sweep; add -loads to use it"))
	}

	opts := upim.ServeOptions{
		Tenants:     tn,
		Policy:      pol,
		Groups:      *groups,
		GroupDPUs:   *gdpus,
		MaxBatch:    *batch,
		Requests:    *requests,
		Load:        *load,
		Seed:        *seed,
		MaxQueue:    *maxQueue,
		Scale:       sc,
		Parallelism: *jobs,
	}
	res, err := upim.Serve(c.ctx, opts)
	if err != nil {
		return c.fail(1, err)
	}
	tables := []*upim.ResultTable{res.RequestTable(), res.SummaryTable()}
	if ls != nil {
		tab, err := upim.ServeLoadSweep(c.ctx, opts, sweep, ls)
		if err != nil {
			return c.fail(1, err)
		}
		tables = append(tables, tab)
	}
	return c.emit(tables, art)
}

// parseTenants parses the -tenants grammar: semicolon-separated
// "name=BENCH+BENCH[:weight]". Names must be distinct, and a weight must
// be a finite positive number.
func parseTenants(spec string) ([]upim.ServeTenant, error) {
	var out []upim.ServeTenant
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" || rest == "" {
			return nil, fmt.Errorf("tenant %q: want name=BENCH+BENCH[:weight]", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("tenant %q is named twice", name)
		}
		seen[name] = true
		t := upim.ServeTenant{Name: name}
		if mix, w, ok := strings.Cut(rest, ":"); ok {
			weight, ok := positive(w)
			if !ok {
				return nil, fmt.Errorf("tenant %q: weight %q is not a finite positive number", name, w)
			}
			t.Weight = weight
			rest = mix
		}
		for _, b := range strings.Split(rest, "+") {
			b = strings.TrimSpace(b)
			if b == "" {
				return nil, fmt.Errorf("tenant %q has an empty benchmark", name)
			}
			t.Mix = append(t.Mix, b)
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty tenant specification")
	}
	return out, nil
}

// parseLoads parses the comma-separated -loads list.
func parseLoads(spec string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, ok := positive(part)
		if !ok {
			return nil, fmt.Errorf("load %q is not a finite positive number", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty load list")
	}
	return out, nil
}

// positive parses a finite number greater than zero. ParseFloat also
// accepts "NaN" and "Inf", which no weight or load may be.
func positive(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil && v > 0 && !math.IsInf(v, 1)
}
