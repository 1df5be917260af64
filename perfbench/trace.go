package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/explore"
	"upim/internal/prim"
	"upim/internal/serve"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point. Parent is the ID of the span that caused it (0 for a
// root). Times are offsets from the tracer's origin.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// leaf aggregates a high-frequency call (a store operation, a policy pick)
// under its parent span: count and total time, instead of one span per call,
// so tracing a pass with hundreds of thousands of picks stays cheap.
type leaf struct {
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Calls  int64         `json:"calls"`
	Total  time.Duration `json:"total_ns"`
}

// tracer keeps spans in memory for the whole run; they are written out once,
// when the benchmark ends. A nil *tracer records nothing, which is how
// untraced passes run.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	leaves []leaf
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.origin)})
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// addLeaf records calls made under parent that together took total.
func (t *tracer) addLeaf(parent int, name string, calls int64, total time.Duration) {
	if t == nil || calls == 0 {
		return
	}
	t.mu.Lock()
	t.leaves = append(t.leaves, leaf{Parent: parent, Name: name, Calls: calls, Total: total})
	t.mu.Unlock()
}

// write dumps every span and leaf aggregate as JSON.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		Spans  []span `json:"spans"`
		Leaves []leaf `json:"leaves"`
	}{t.spans, t.leaves})
}

// layerTime is one layer's folded share of the traced spans under a set of
// roots: its self time (duration minus what its children cover), its
// inclusive time, and how many calls it took.
type layerTime struct {
	Self, Incl time.Duration
	Calls      int64
}

// fold sums self and inclusive time per span name over the subtrees rooted at
// roots. A root's own self time is the part of the pass no layer accounts
// for; it is returned under the root's name like any other layer.
func (t *tracer) fold(roots []int) map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	in := map[int]bool{}
	for _, r := range roots {
		in[r] = true
	}
	// Spans are appended in start order, so a parent always precedes its
	// children and one forward sweep marks every subtree.
	for _, s := range t.spans {
		if in[s.Parent] {
			in[s.ID] = true
		}
	}
	child := map[int]time.Duration{}
	out := map[string]*layerTime{}
	get := func(name string) *layerTime {
		lt := out[name]
		if lt == nil {
			lt = &layerTime{}
			out[name] = lt
		}
		return lt
	}
	for _, l := range t.leaves {
		if !in[l.Parent] {
			continue
		}
		child[l.Parent] += l.Total
		lt := get(l.Name)
		lt.Self += l.Total
		lt.Incl += l.Total
		lt.Calls += l.Calls
	}
	for _, s := range t.spans {
		if in[s.ID] && s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if !in[s.ID] {
			continue
		}
		d := s.End - s.Start
		lt := get(s.Name)
		lt.Self += d - child[s.ID]
		lt.Incl += d
		lt.Calls++
	}
	return out
}

// timedBackend wraps the local store with per-operation timing and the work
// counts the store's own Stats do not keep: calls per operation, bytes
// written, and writes that rewrote an identical entry. It is used only in
// traced passes; untraced passes hand the explorer the bare store.
type timedBackend struct {
	*explore.Store
	gets, getEsts, puts, putEsts opTimer
	probe                        opTimer
	redundant, bytes             int64
}

// opTimer accumulates one operation's calls and time.
type opTimer struct {
	calls int64
	total time.Duration
}

func (o *opTimer) since(t0 time.Time) {
	o.calls++
	o.total += time.Since(t0)
}

var _ explore.Backend = (*timedBackend)(nil)

func (b *timedBackend) Get(key string) (*prim.Result, bool) {
	t0 := time.Now()
	defer b.gets.since(t0)
	return b.Store.Get(key)
}

func (b *timedBackend) GetEstimate(key string) (*estimate.Estimate, bool) {
	t0 := time.Now()
	defer b.getEsts.since(t0)
	return b.Store.GetEstimate(key)
}

func (b *timedBackend) Put(key string, p engine.Point, res *prim.Result) error {
	before := b.snapshot(key)
	t0 := time.Now()
	err := b.Store.Put(key, p, res)
	b.puts.since(t0)
	b.account(key, before)
	return err
}

func (b *timedBackend) PutEstimate(key string, p engine.Point, est *estimate.Estimate) error {
	before := b.snapshot(key)
	t0 := time.Now()
	err := b.Store.PutEstimate(key, p, est)
	b.putEsts.since(t0)
	b.account(key, before)
	return err
}

// entryFile is one on-disk store entry as seen before or after a write.
type entryFile struct {
	info os.FileInfo
	data []byte
}

// snapshot reads the entry file for key (the store's documented layout:
// dir/<key[:2]>/<key>.json). Its time is booked as the tracer's own probe
// cost, not as store time.
func (b *timedBackend) snapshot(key string) *entryFile {
	t0 := time.Now()
	defer b.probe.since(t0)
	path := filepath.Join(b.Dir(), key[:2], key+".json")
	info, err := os.Stat(path)
	if err != nil {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	return &entryFile{info, data}
}

// account classifies the write just made to key: no write (the file is the
// same one), a new entry, or a rewrite with identical bytes.
func (b *timedBackend) account(key string, before *entryFile) {
	after := b.snapshot(key)
	if after == nil || (before != nil && os.SameFile(before.info, after.info)) {
		return
	}
	b.bytes += int64(len(after.data))
	if before != nil && string(before.data) == string(after.data) {
		b.redundant++
	}
}

// flush books the accumulated operations as leaves of parent.
func (b *timedBackend) flush(tr *tracer, parent int) {
	tr.addLeaf(parent, "store.get", b.gets.calls, b.gets.total)
	tr.addLeaf(parent, "store.get_estimate", b.getEsts.calls, b.getEsts.total)
	tr.addLeaf(parent, "store.put", b.puts.calls, b.puts.total)
	tr.addLeaf(parent, "store.put_estimate", b.putEsts.calls, b.putEsts.total)
	tr.addLeaf(parent, "trace.store_probe", b.probe.calls, b.probe.total)
}

// timedPolicy wraps a serving policy with pick timing and queue-depth counts.
type timedPolicy struct {
	serve.Policy
	picks            opTimer
	pendSum, pendMax int64
}

func (p *timedPolicy) Pick(pending []*serve.Request, now float64) int {
	t0 := time.Now()
	i := p.Policy.Pick(pending, now)
	p.picks.since(t0)
	n := int64(len(pending))
	p.pendSum += n
	p.pendMax = max(p.pendMax, n)
	return i
}

// layerRow is one line of the folded per-layer table.
type layerRow struct {
	layer      string
	self       float64 // seconds per pass
	calls      float64 // per pass
	unit       string
	units      float64 // work units per pass
	shareOfRun float64 // self / traced wall
}

// workUnit maps a span name to the count metric that measures its work.
var workUnit = map[string][2]string{
	"explore.explore_tiered": {"explore.keys", "points"},
	"explore.key":            {"explore.keys", "keys"},
	"estimate.plan":          {"estimate.points", "estimates"},
	"energy.price":           {"energy.pricings", "pricings"},
	"engine.run":             {"core.instructions", "instr"},
	"hbmpim.run":             {"hbmpim.points", "points"},
	"kbuild.build":           {"kbuild.builds", "kernels"},
	"serve.serve":            {"serve.requests", "requests"},
	"serve.pick":             {"serve.picks", "picks"},
	"store.get":              {"store.gets", "gets"},
	"store.put":              {"store.puts", "puts"},
	"store.put_estimate":     {"store.put_estimates", "puts"},
}

// rootSpans name the spans that open a pass or a probe: their self time is
// the time no layer accounts for.
var rootSpans = map[string]bool{"pass": true, "probe": true, "resume": true}

// foldRows turns a fold over per passes into table rows. Work units come
// from the count metrics in out (nil: calls are the unit); shares are of
// wall.
func foldRows(fold map[string]*layerTime, per, wall float64, out map[string]float64) []layerRow {
	var rs []layerRow
	for name, lt := range fold {
		r := layerRow{layer: name, self: lt.Self.Seconds() / per, calls: float64(lt.Calls) / per, unit: "calls"}
		r.units = r.calls
		if rootSpans[name] {
			r.layer, r.units = "(unaccounted: "+name+" self)", 0
		}
		if wu, ok := workUnit[name]; ok && out != nil {
			r.unit, r.units = wu[1], out[wu[0]]
		}
		if wall > 0 {
			r.shareOfRun = r.self / wall
		}
		rs = append(rs, r)
	}
	return rs
}

// printLayerTable writes the folded per-layer table: self time per pass,
// calls, ns per unit of work and share of the traced pass.
func printLayerTable(w io.Writer, title string, rows []layerRow) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %-28s %12s %10s %14s %16s %8s\n", "layer", "self s/pass", "calls", "work/pass", "ns/unit", "share")
	for _, r := range rows {
		nsPer := "-"
		work := "-"
		if r.units > 0 {
			nsPer = fmt.Sprintf("%.1f", r.self*1e9/r.units)
			work = fmt.Sprintf("%.0f %s", r.units, r.unit)
		}
		share := "-"
		if r.shareOfRun > 0 {
			share = fmt.Sprintf("%.2f%%", 100*r.shareOfRun)
		}
		fmt.Fprintf(w, "  %-28s %12.6f %10.0f %14s %16s %8s\n", r.layer, r.self, r.calls, work, nsPer, share)
	}
}
