package main

import (
	"context"
	"fmt"
	"os"

	"upim/internal/figures"
	"upim/internal/prim"
)

// figuresWorkload regenerates every registered experiment at tiny scale and
// checks each table against its committed reference at eps 1e-12, as
// `figures -exp all -scale tiny -check -eps 1e-12` does.
type figuresWorkload struct {
	opts figures.Options
}

// checkEps is the tolerance every reference check uses: the simulator is
// deterministic, so regenerated tables match their references exactly.
const checkEps = 1e-12

func newFigures(c runConfig) (workload, error) {
	return &figuresWorkload{opts: figures.Options{Scale: prim.ScaleTiny, Parallelism: c.par}}, nil
}

// setup runs one untimed pass: the figures package builds kernels into its
// own process-wide cache during the first pass, and later passes reuse them.
func (w *figuresWorkload) setup(ctx context.Context) error {
	p := startPass(nil)
	r := w.pass(ctx, p)
	if r.failed > 0 {
		return fmt.Errorf("warm-up pass: %d of %d tables failed", r.failed, r.attempted)
	}
	return nil
}

func (w *figuresWorkload) pass(ctx context.Context, p *pass) passResult {
	var r passResult
	for _, e := range figures.Experiments() {
		r.attempted++
		id := p.begin("figures." + e.ID)
		tab, err := e.Run(ctx, w.opts)
		p.end(id)
		if err == nil {
			id = p.begin("figures.check")
			err = figures.Check(tab, checkEps)
			p.end(id)
		}
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: figures %s: %v\n", e.ID, err)
		}
	}
	p.stop()
	r.counts = map[string]float64{}
	return r
}

// probe times kernel builds; the figures package keeps its simulation
// points and build cache to itself, so the engine-level layers read 0 here.
func (w *figuresWorkload) probe(_ context.Context, tr *tracer, root int) (map[string]float64, error) {
	return probeKernelBuilds(tr, root)
}

func (w *figuresWorkload) finish(context.Context) (int, int) { return 0, 0 }
