// Command perfbench measures the host time of the simulator's three
// user-facing jobs — regenerating the paper's figures, exploring a design
// space, and running a serving study — through the public entry points of
// internal/figures, internal/explore and internal/serve.
//
// Each run sets up once, then runs passes of one workload in a closed loop
// (the next pass starts when the previous one ends) for --seconds, checks
// every pass's outputs against the repository's committed references, and
// prints one JSON result as the last line of standard output. With --trace 1
// it alternates untraced and traced passes and reports per-layer metrics
// instead; spans are recorded by this program around calls into each layer.
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 25 --trace 0
//
// Run it from the repository root; it writes only under .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outDir holds stores, traces, results and count records, relative to the
// repository root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// workload is one job the benchmark times.
type workload interface {
	// setup does the one-time work before the first timed pass: loading
	// calibrations, building kernels, filling process caches with a
	// warm-up pass.
	setup(ctx context.Context) error
	// pass runs one timed unit of the job. It calls p.stop() once the
	// program's work is done; checks after that are not timed.
	pass(ctx context.Context, p *pass) passResult
	// probe re-times, outside the passes, the layers a pass calls only from
	// inside the program (traced runs only).
	probe(ctx context.Context, tr *tracer, root int) (map[string]float64, error)
	// finish runs the once-per-run reference checks.
	finish(ctx context.Context) (attempted, failed int)
}

// runConfig is what every workload is built from.
type runConfig struct {
	seed int64
	// par is the worker count of every engine, explorer and serve call.
	par int
	// dir is the run's private scratch directory, removed at exit.
	dir string
	// traced is set for --trace 1 runs.
	traced bool
}

var workloads = map[string]func(runConfig) (workload, error){
	"figures":    newFigures,
	"sweep-cold": newSweep,
	"serve":      newServe,
}

// pass is the timing context of one pass: the wall clock around the
// program's work and, in traced passes, the root span its layers nest under.
type pass struct {
	tr      *tracer
	root    int
	start   time.Time
	wall    time.Duration
	stopped bool
}

func startPass(tr *tracer) *pass {
	p := &pass{tr: tr}
	p.root = tr.begin("pass", 0)
	p.start = time.Now()
	return p
}

func (p *pass) begin(name string) int { return p.tr.begin(name, p.root) }
func (p *pass) end(id int)            { p.tr.end(id) }
func (p *pass) traced() bool          { return p.tr != nil }

// stop ends the timed part of the pass.
func (p *pass) stop() {
	if p.stopped {
		return
	}
	p.wall = time.Since(p.start)
	p.tr.end(p.root)
	p.stopped = true
}

// passResult is what one pass reports besides its wall time.
type passResult struct {
	// attempted and failed count the pass's checked units (tables, design
	// points, serve calls); failed ones missed their reference.
	attempted, failed int
	// counts are the pass's work counts (traced passes), keyed by metric.
	counts map[string]float64
	// points, instructions and requests are the work the throughput
	// metrics divide by the untraced wall time.
	points, instructions, requests float64
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: figures, sweep-cold or serve")
		seed    = flag.Int64("seed", 1, "workload seed (serve's arrival seed; recorded for the others)")
		seconds = flag.Int("seconds", 20, "how long the passes run, in seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	if _, err := loadBenchmarkFile("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload figures|sweep-cold|serve, --seconds >= 1, --trace 0|1")
		return 2
	}
	env, err := captureEnv(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir := filepath.Join(outDir, fmt.Sprintf("%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	ctx := context.Background()
	w, err := mk(runConfig{seed: *seed, par: env.NumCPU, dir: dir, traced: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	m := &measurement{env: env, w: w, budget: time.Duration(*seconds) * time.Second}
	res, err := m.run(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	envLine, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("env %s\n", envLine)
	if err := writeJSON(filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace)),
		struct {
			Env    *runEnv `json:"env"`
			Result *result `json:"result"`
		}{env, res}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// measurement drives one run of one workload.
type measurement struct {
	env    *runEnv
	w      workload
	budget time.Duration

	attempted, failed int
	correct           bool
}

func (m *measurement) run(ctx context.Context) (*result, error) {
	m.correct = true
	t0 := time.Now()
	if err := m.w.setup(ctx); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(t0).Seconds()

	metrics := map[string]metricValue{}
	if !m.env.Traced {
		walls := m.untracedPasses(ctx)
		metrics["wall_s"] = metricValue{median(walls), "s"}
		metrics["setup_s"] = metricValue{setup, "s"}
	} else {
		layer, err := m.tracedPasses(ctx)
		if err != nil {
			return nil, err
		}
		for _, d := range perLayer {
			metrics[d.Name] = metricValue{layer[d.Name], d.Unit}
		}
	}
	a, f := m.w.finish(ctx)
	m.attempted += a
	m.failed += f
	if !m.env.Traced {
		metrics["peak_rss_mb"] = metricValue{peakRSSMB(), "MB"}
	}
	return &result{
		Correct:   m.correct && m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   metrics,
	}, nil
}

// untracedPasses runs passes until the budget is spent: a pass starts only
// when the median pass so far still fits, and at least one pass runs.
func (m *measurement) untracedPasses(ctx context.Context) []float64 {
	var walls []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds()+median(walls) <= m.budget.Seconds() {
		p := startPass(nil)
		r := m.w.pass(ctx, p)
		p.stop()
		m.account(r)
		walls = append(walls, p.wall.Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d passes, wall_s %v\n", m.env.Workload, len(walls), walls)
	return walls
}

func (m *measurement) account(r passResult) {
	m.attempted += r.attempted
	m.failed += r.failed
}

// tracedPasses alternates traced and untraced passes (at least two traced
// and one untraced), runs the workload's probes, and folds everything into
// the per-layer metrics.
func (m *measurement) tracedPasses(ctx context.Context) (map[string]float64, error) {
	tr := newTracer()
	var (
		traced, untraced []float64
		roots            []int
		counts           map[string]float64
		last             passResult
		allocs, allocMB  []float64
		gcs              []float64
	)
	start := time.Now()
	for {
		elapsed := time.Since(start).Seconds()
		next := median(append(append([]float64{}, traced...), untraced...))
		if len(traced) >= 2 && len(untraced) >= 1 && elapsed+next > m.budget.Seconds() {
			break
		}
		if len(traced) <= len(untraced) {
			p := startPass(tr)
			r := m.w.pass(ctx, p)
			p.stop()
			m.account(r)
			traced = append(traced, p.wall.Seconds())
			roots = append(roots, p.root)
			if counts == nil {
				counts = r.counts
			} else if diff := diffCounts(counts, r.counts); diff != "" {
				m.correct = false
				fmt.Fprintf(os.Stderr, "perfbench: work counts changed between passes: %s\n", diff)
			}
			last = r
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p := startPass(nil)
		r := m.w.pass(ctx, p)
		p.stop()
		runtime.ReadMemStats(&after)
		m.account(r)
		untraced = append(untraced, p.wall.Seconds())
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		gcs = append(gcs, float64(after.NumGC-before.NumGC))
	}

	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	for k, v := range counts {
		out[k] = v
	}
	// In-pass layer times: inclusive time per span name, per traced pass.
	passFold := tr.fold(roots)
	n := float64(len(roots))
	for name, lt := range passFold {
		if _, ok := out[name+"_s"]; ok {
			out[name+"_s"] = lt.Incl.Seconds() / n
		}
	}
	probeRoot := tr.begin("probe", 0)
	pv, err := m.w.probe(ctx, tr, probeRoot)
	tr.end(probeRoot)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	for k, v := range pv {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("probe reported undeclared metric %q", k)
		}
		out[k] = v
	}
	workCounts := map[string]float64{}
	for _, d := range perLayer {
		if d.Count {
			workCounts[d.Name] = out[d.Name]
		}
	}
	if err := m.checkCountsRepeat(workCounts); err != nil {
		return nil, err
	}

	uw, tw := median(untraced), median(traced)
	out["trace.traced_wall_s"] = tw
	out["trace.untraced_wall_s"] = uw
	out["trace.overhead_s"] = tw - uw
	out["trace.unaccounted_s"] = passFold["pass"].Self.Seconds() / n
	out["runtime.allocs"] = median(allocs)
	out["runtime.alloc_mb"] = median(allocMB)
	out["runtime.gc_cycles"] = median(gcs)
	out["points_per_s"] = last.points / uw
	out["sim_kips"] = last.instructions / uw / 1e3
	out["requests_per_s"] = last.requests / uw

	m.printLayers(tr, passFold, n, tw, uw, probeRoot, out)
	if err := writeTrace(tr, m.env); err != nil {
		return nil, err
	}
	return out, nil
}

// checkCountsRepeat compares this run's work counts with the last run's on
// the same sources, workload and seed, recording them when none exists.
func (m *measurement) checkCountsRepeat(counts map[string]float64) error {
	path := filepath.Join(outDir, "counts", fmt.Sprintf("%s-%s-seed%d.json", m.env.SourceTree[:16], m.env.Workload, m.env.Seed))
	data, err := os.ReadFile(path)
	if err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if diff := diffCounts(prev, counts); diff != "" {
			m.correct = false
			fmt.Fprintf(os.Stderr, "perfbench: work counts differ from the previous run (%s): %s\n", path, diff)
		}
		return nil
	}
	return writeJSON(path, counts)
}

// diffCounts describes the keys whose values differ, or "" when none do.
func diffCounts(a, b map[string]float64) string {
	var diffs []string
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			diffs = append(diffs, fmt.Sprintf("%s %v -> %v", k, v, b[k]))
		}
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s (new) %v", k, v))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "; ")
}

// printLayers writes the folded per-layer tables for the traced passes and
// the probes, with the time no layer accounts for and the tracing overhead.
func (m *measurement) printLayers(tr *tracer, passFold map[string]*layerTime, n, tw, uw float64, probeRoot int, out map[string]float64) {
	title := fmt.Sprintf("layers of %s, %d traced passes: traced wall_s %.6f, untraced wall_s %.6f, tracing overhead %.6f s (%.2f%%)",
		m.env.Workload, int(n), tw, uw, tw-uw, 100*(tw-uw)/uw)
	// Shares are of the mean traced pass, the base the per-pass self times
	// are averaged over.
	printLayerTable(os.Stdout, title, foldRows(passFold, n, passFold["pass"].Incl.Seconds()/n, out))
	probeFold := tr.fold([]int{probeRoot})
	printLayerTable(os.Stdout, "probes (outside the timed passes; share is of the probe's own time)",
		foldRows(probeFold, 1, probeFold["probe"].Incl.Seconds(), out))
	for _, d := range perLayer {
		fmt.Fprintf(os.Stdout, "  %-28s %-16.6g %-6s moves: %s\n", d.Name, out[d.Name], d.Unit, d.Moves)
	}
}

func writeTrace(tr *tracer, env *runEnv) error {
	path := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.json", env.Workload, env.Seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
