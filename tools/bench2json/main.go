// Command bench2json converts `go test -bench -benchmem` output on stdin
// into a machine-readable JSON report (BENCH_10.json in CI): one record per
// benchmark carrying ns/op, allocation counters, and every custom metric
// (the headline figure numbers bench_test.go attaches via b.ReportMetric).
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' . | go run ./tools/bench2json -out BENCH_10.json
//
// With -baseline it switches to diff mode: instead of a report it prints a
// per-benchmark delta table (ns/op, B/op, allocs/op and the KIPS throughput
// metric) against a previously committed report, and -gate turns allocs/op
// regressions on the named benchmarks into a non-zero exit — CI's hard
// allocation gate:
//
//	go test -bench=. -benchmem -run='^$' . |
//	  go run ./tools/bench2json -baseline BENCH_10.json \
//	    -gate BenchmarkTable1_Config,BenchmarkTable2_Datasets
//
// The current run can also be read from an existing JSON report via -in,
// so two saved reports can be diffed without re-running anything.
//
// The parser is deliberately forgiving: non-benchmark lines (goos/goarch,
// PASS, package summaries) are skipped, and context lines (goos, goarch,
// cpu) are captured into the report header when present.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the emitted document.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Package    string      `json:"package,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "baseline JSON report: print per-benchmark deltas instead of a report")
	in := flag.String("in", "", "read the current run from a JSON report instead of parsing bench output on stdin")
	gate := flag.String("gate", "", "comma-separated benchmark names whose allocs/op must not regress vs -baseline (exit 1 on regression)")
	gateTol := flag.Float64("gate-tol", 0.10, "allowed fractional allocs/op increase before -gate fails")
	flag.Parse()

	if *gate != "" && *baseline == "" {
		fatal(fmt.Errorf("-gate requires -baseline"))
	}

	var report *Report
	var err error
	if *in != "" {
		report, err = readReport(*in)
	} else {
		report, err = parse(bufio.NewScanner(os.Stdin))
	}
	if err != nil {
		fatal(err)
	}
	if len(report.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark records found"))
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	if *baseline != "" {
		base, err := readReport(*baseline)
		if err != nil {
			fatal(err)
		}
		regressed := diff(w, base, report, *baseline, splitGate(*gate), *gateTol)
		if len(regressed) > 0 {
			fmt.Fprintf(os.Stderr, "bench2json: allocs/op regression past %.0f%% tolerance: %s\n",
				*gateTol*100, strings.Join(regressed, ", "))
			os.Exit(1)
		}
		return
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench2json:", err)
	os.Exit(1)
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func splitGate(s string) map[string]bool {
	gated := map[string]bool{}
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			gated[n] = true
		}
	}
	return gated
}

// diff prints a per-benchmark delta table of cur vs base and returns the
// gated benchmarks whose allocs/op regressed beyond tol. Benchmarks present
// on only one side are listed without deltas, and a gated benchmark missing
// from the current run counts as a regression (the gate must not pass
// because the benchmark silently disappeared).
func diff(w io.Writer, base, cur *Report, baseName string, gated map[string]bool, tol float64) []string {
	byName := map[string]*Benchmark{}
	for i := range base.Benchmarks {
		byName[base.Benchmarks[i].Name] = &base.Benchmarks[i]
	}
	seen := map[string]bool{}
	var regressed []string

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark\tmetric\t%s\tcurrent\tdelta\n", baseName)
	for i := range cur.Benchmarks {
		c := &cur.Benchmarks[i]
		seen[c.Name] = true
		b, ok := byName[c.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t(new)\t-\t-\t-\n", c.Name)
			continue
		}
		row := func(metric string, old, new float64) {
			if old == 0 && new == 0 {
				return
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", c.Name, metric, fnum(old), fnum(new), delta(old, new))
		}
		row("ns/op", b.NsPerOp, c.NsPerOp)
		row("B/op", b.BytesPerOp, c.BytesPerOp)
		row("allocs/op", b.AllocsPerOp, c.AllocsPerOp)
		if old, new := b.Metrics["KIPS"], c.Metrics["KIPS"]; old != 0 || new != 0 {
			row("KIPS", old, new)
		}
		if gated[c.Name] && c.AllocsPerOp > b.AllocsPerOp*(1+tol) {
			regressed = append(regressed, fmt.Sprintf("%s (%.0f -> %.0f allocs/op)", c.Name, b.AllocsPerOp, c.AllocsPerOp))
		}
	}
	for name := range byName {
		if !seen[name] {
			fmt.Fprintf(tw, "%s\t(removed)\t-\t-\t-\n", name)
			if gated[name] {
				regressed = append(regressed, name+" (missing from current run)")
			}
		}
	}
	tw.Flush()
	return regressed
}

// fnum formats a metric value compactly (benchstat-style magnitudes).
func fnum(v float64) string {
	switch a := math.Abs(v); {
	case a >= 1e9:
		return fmt.Sprintf("%.3gG", v/1e9)
	case a >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case a >= 1e4:
		return fmt.Sprintf("%.3gk", v/1e3)
	default:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
}

func delta(old, new float64) string {
	if old == 0 {
		return "?"
	}
	return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
}

func parse(sc *bufio.Scanner) (*Report, error) {
	r := &Report{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			r.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			r.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			r.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			r.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBench(line)
			if err != nil {
				return nil, fmt.Errorf("%q: %w", line, err)
			}
			r.Benchmarks = append(r.Benchmarks, b)
		}
	}
	return r, sc.Err()
}

// parseBench parses one result line of the form
//
//	BenchmarkName-8  3  123456 ns/op  42.0 some-metric  100 B/op  7 allocs/op
//
// into its typed record. Fields come in (value, unit) pairs after the
// iteration count.
func parseBench(line string) (Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, fmt.Errorf("too few fields")
	}
	name := fields[0]
	// Strip the -N GOMAXPROCS suffix if present.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("iterations: %w", err)
	}
	b := Benchmark{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("value %q: %w", fields[i], err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
		case "B/op":
			b.BytesPerOp = val
		case "allocs/op":
			b.AllocsPerOp = val
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = val
		}
	}
	return b, nil
}
