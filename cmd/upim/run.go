package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"upim"
	"upim/internal/isa"
	"upim/internal/prim"
)

// cmdRun runs one PrIM kernel on the simulated UPMEM-PIM system and prints
// the cycle-level statistics the paper's characterization is built from:
//
//	upim run -kernel VA -threads 16 -dpus 4 -mode scratchpad -scale small
func cmdRun(c *cli, args []string) int {
	fs := c.fs
	var (
		kernel  = fs.String("kernel", "VA", "PrIM benchmark name ("+strings.Join(upim.Benchmarks(), ", ")+")")
		threads = fs.Int("threads", 16, "tasklets per DPU (1-16 for PrIM kernels)")
		dpus    = fs.Int("dpus", 1, "number of DPUs")
		mode    = fs.String("mode", "scratchpad", "memory model: scratchpad, cache or simt (GEMV only)")
		scale   = fs.String("scale", "small", "dataset scale: tiny, small or paper")
		ilp     = fs.String("ilp", "", "ILP features, a subset of DRSF (Fig 12)")
		mmu     = fs.Bool("mmu", false, "enable the case-study 3 MMU")
	)
	if code, ok := c.parse(args); !ok {
		return code
	}
	sc, err := prim.ParseScale(*scale)
	if err != nil {
		return c.fail(2, err)
	}

	cfg := upim.DefaultConfig()
	if *mmu {
		cfg.MMU.Enable = true
		cfg.MMU.Prefault = false
	}
	tasklets := *threads
	switch *mode {
	case "scratchpad":
		cfg.Mode = upim.ModeScratchpad
	case "cache":
		cfg.Mode = upim.ModeCache
	case "simt":
		cfg.Mode = upim.ModeSIMT
		cfg.SIMTCoalesce = true
		tasklets = 16 * 16
	default:
		return c.fail(1, fmt.Errorf("unknown mode %q", *mode))
	}
	r, err := upim.NewRunner(
		upim.WithConfig(cfg),
		upim.WithTasklets(tasklets),
		upim.WithDPUs(*dpus),
		upim.WithILP(*ilp),
		upim.WithScale(sc),
	)
	if err != nil {
		return c.fail(1, err)
	}
	res, err := r.Run(c.ctx, *kernel)
	if err != nil {
		return c.fail(1, err)
	}
	fmt.Fprintf(c.stdout, "%s: %s mode, %d tasklets x %d DPUs, scale %s — output verified against golden model\n\n",
		res.Benchmark, res.Mode, res.Tasklets, res.DPUs, sc)
	fmt.Fprint(c.stdout, res.Stats.Summary())
	fmt.Fprintf(c.stdout, "\nmodeled wall-clock (ms): kernel %.3f  CPU->DPU %.3f  DPU->CPU %.3f  DPU<->DPU %.3f  total %.3f\n",
		res.Report.KernelSeconds*1e3,
		res.Report.TransferSeconds[0]*1e3,
		res.Report.TransferSeconds[1]*1e3,
		res.Report.TransferSeconds[2]*1e3,
		res.Report.Total()*1e3)
	return 0
}

const asmDoc = "usage: upim asm [-mode scratchpad|cache] file.S\n"

// cmdAsm drives the assembler/linker toolchain on a textual assembly file:
// it assembles, links against the default configuration, and prints the
// encoded IRAM image size, the symbol table (by address) and the
// disassembly — the "compile any UPMEM-PIM program down to machine level"
// path of the paper's frontend.
func cmdAsm(c *cli, args []string) int {
	mode := c.fs.String("mode", "scratchpad", "link target: scratchpad or cache")
	if code, ok := c.parse(args); !ok {
		return code
	}
	if c.fs.NArg() != 1 {
		fmt.Fprint(c.stderr, asmDoc)
		return 2
	}
	cfg := upim.DefaultConfig()
	switch *mode {
	case "scratchpad":
	case "cache":
		cfg.Mode = upim.ModeCache
	default:
		return c.fail(2, fmt.Errorf("unknown mode %q (want scratchpad or cache)", *mode))
	}
	path := c.fs.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		return c.fail(1, err)
	}
	obj, err := upim.Assemble(path, string(src))
	if err != nil {
		return c.fail(1, err)
	}
	prog, err := upim.Link(obj, cfg)
	if err != nil {
		return c.fail(1, err)
	}
	img, err := prog.IRAMImage()
	if err != nil {
		return c.fail(1, err)
	}
	fmt.Fprintf(c.stdout, "%s: %d instructions, %d bytes of IRAM (%d-byte words), %d static bytes in %v\n\n",
		prog.Name, len(prog.Instrs), len(img), isa.WordBytes, prog.StaticBytes, prog.StaticSpace)
	names := make([]string, 0, len(prog.Symbols))
	for name := range prog.Symbols {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := prog.Symbols[names[i]], prog.Symbols[names[j]]
		return a.Addr < b.Addr || a.Addr == b.Addr && names[i] < names[j]
	})
	for _, name := range names {
		sym := prog.Symbols[name]
		fmt.Fprintf(c.stdout, "  %-16s 0x%08x  %d bytes\n", name, sym.Addr, sym.Size)
	}
	fmt.Fprintln(c.stdout)
	fmt.Fprint(c.stdout, isa.Disassemble(prog.Instrs))
	return 0
}
