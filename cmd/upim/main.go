// Command upim is the uPIMulator-Go toolchain in one binary: assemble
// UPMEM-PIM source down to machine code, simulate it cycle by cycle, and
// drive the paper's characterization, figures, serving model and
// pathfinding explorations on top of that simulator.
//
// Usage:
//
//	upim <subcommand> [flags]
//
// Subcommands:
//
//	run         simulate one PrIM kernel and print its cycle-level statistics
//	suite       run all 16 PrIM workloads, one summary line each
//	figures     regenerate, export and golden-check the paper's tables and figures
//	serve       serve a multi-tenant request stream on the simulated PIM system
//	pathfind    explore a design space: Pareto frontiers, best configs, energy
//	calibrate   refit (or -check) the estimator's committed calibration artifact
//	coordinate  serve a result store, and a lease coordinator, over HTTP
//	work        drain a coordinator's shards as one remote worker
//	asm         assemble and link an assembly file, print its disassembly
//
// `upim <subcommand> -h` lists a subcommand's flags. Every subcommand prints
// its errors as one "upim <subcommand>: ..." line; a malformed flag exits 2,
// a failed run exits 1, and Ctrl-C cancels in-flight simulations.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"upim"
	"upim/internal/figures/refdata"
)

// subcommands lists upim's subcommands in usage order. about is the
// one-line summary; doc, when set, is printed under it by -h.
var subcommands = []struct {
	name, about, doc string
	main             func(c *cli, args []string) int
}{
	{"run", "simulate one PrIM kernel and print its cycle-level statistics", "", cmdRun},
	{"suite", "run all 16 PrIM workloads, one summary line each", "", cmdSuite},
	{"figures", "regenerate, export and golden-check the paper's tables and figures", "", cmdFigures},
	{"serve", "serve a multi-tenant request stream on the simulated PIM system", serveDoc, cmdServe},
	{"pathfind", "explore a design space: Pareto frontiers, best configs, energy", "", cmdPathfind},
	{"calibrate", "refit (or -check) the estimator's committed calibration artifact", "", cmdCalibrate},
	{"coordinate", "serve a result store, and a lease coordinator, over HTTP", "", cmdCoordinate},
	{"work", "drain a coordinator's shards as one remote worker", "", cmdWork},
	{"asm", "assemble and link an assembly file, print its disassembly", asmDoc, cmdAsm},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches args[0] to its subcommand and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	for _, s := range subcommands {
		if s.name != args[0] {
			continue
		}
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
		defer cancel()
		c := &cli{name: "upim " + s.name, ctx: ctx, stdout: stdout, stderr: stderr}
		c.fs = flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.fs.SetOutput(stderr)
		c.fs.Usage = func() {
			fmt.Fprintf(stderr, "%s — %s\n", c.name, s.about)
			if s.doc != "" {
				fmt.Fprint(stderr, "\n", s.doc)
			}
			fmt.Fprint(stderr, "\nFlags:\n")
			c.fs.PrintDefaults()
		}
		return s.main(c, args[1:])
	}
	fmt.Fprintf(stderr, "upim: unknown subcommand %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprint(w, "usage: upim <subcommand> [flags]\n\nSubcommands:\n")
	for _, s := range subcommands {
		fmt.Fprintf(w, "  %-11s %s\n", s.name, s.about)
	}
	fmt.Fprint(w, "\nRun 'upim <subcommand> -h' for its flags.\n")
}

// cli is one subcommand invocation: its flags, its output streams and the
// context Ctrl-C cancels.
type cli struct {
	name           string // "upim <subcommand>", the prefix of every stderr line
	fs             *flag.FlagSet
	ctx            context.Context
	stdout, stderr io.Writer
}

// parse parses args into c.fs. ok is false when the subcommand must return
// code at once: 0 after -h, 2 on a malformed flag (already reported).
func (c *cli) parse(args []string) (code int, ok bool) {
	if err := c.fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	return 0, true
}

// set reports whether the named flag was given on the command line — the
// orphan-flag rule: a flag that only matters beside another one is an
// error without it, never silently ignored.
func (c *cli) set(name string) bool {
	found := false
	c.fs.Visit(func(f *flag.Flag) { found = found || f.Name == name })
	return found
}

// logf writes one prefixed line to stderr.
func (c *cli) logf(format string, a ...any) {
	fmt.Fprintf(c.stderr, "%s: %s\n", c.name, fmt.Sprintf(format, a...))
}

// fail reports err and returns code.
func (c *cli) fail(code int, err error) int {
	c.logf("%v", err)
	return code
}

// profile starts -cpuprofile (when cpuPath is set) and returns a stop that
// ends it and writes the -memprofile heap profile (when memPath is set).
// stop must run before the subcommand returns, or the CPU profile is
// truncated.
func (c *cli) profile(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err == nil {
			runtime.GC() // materialize the final live set
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			c.logf("memprofile: %v", err)
		}
	}, nil
}

// openEvents opens a JSONL events log for appending. An empty path is no
// log: a nil writer and a no-op close.
func openEvents(path string) (w io.Writer, closeFn func(), err error) {
	if path == "" {
		return nil, func() {}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// artifacts is what a subcommand's -out, -writeref, -check and -eps flags
// ask of the tables it emits.
type artifacts struct {
	out      string  // browsable report directory
	writeref string  // reference JSON directory (maintainers only)
	check    bool    // compare every table against the committed references
	eps      float64 // the -check tolerance
	spaced   bool    // print a blank line after each table
}

// validate rejects an -eps without -check, which nothing would read.
func (a artifacts) validate() error {
	if a.eps != 0 && !a.check {
		return errors.New("-eps sets the -check tolerance; add -check to use it")
	}
	return nil
}

// emit prints tables to stdout, then writes the -out report and the
// -writeref references and runs -check. It returns the exit code: 1 when a
// write fails or a table deviates from its reference.
func (c *cli) emit(tables []*upim.ResultTable, a artifacts) int {
	for _, tab := range tables {
		tab.Fprint(c.stdout)
		if a.spaced {
			fmt.Fprintln(c.stdout)
		}
	}
	if a.out != "" {
		if err := c.report(a.out, tables); err != nil {
			return c.fail(1, err)
		}
	}
	if a.writeref != "" {
		if err := writeReferences(a.writeref, tables); err != nil {
			return c.fail(1, err)
		}
		c.logf("wrote %d reference artifacts to %s", len(tables), a.writeref)
	}
	if a.check {
		failed := 0
		for _, tab := range tables {
			if err := upim.CheckArtifact(tab, a.eps); err != nil {
				c.logf("check FAILED: %v", err)
				failed++
			}
		}
		if failed > 0 {
			c.logf("%d/%d artifacts deviate from the reference", failed, len(tables))
			return 1
		}
		c.logf("all %d artifacts match the reference", len(tables))
	}
	return 0
}

// report writes the browsable -out report of tables into dir.
func (c *cli) report(dir string, tables []*upim.ResultTable) error {
	if err := upim.WriteReport(dir, tables); err != nil {
		return err
	}
	c.logf("wrote %d artifacts + index.md to %s", len(tables), dir)
	return nil
}

// writeReferences writes each table's reference JSON into dir under the
// embedded-refdata naming convention (the `make refdata` target).
func writeReferences(dir string, tables []*upim.ResultTable) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, tab := range tables {
		f, err := os.Create(filepath.Join(dir, refdata.FileName(tab.Key, tab.Scale)))
		if err == nil {
			err = tab.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}
