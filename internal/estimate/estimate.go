package estimate

import (
	"errors"
	"fmt"
	"math"

	"upim/internal/config"
	"upim/internal/energy"
	"upim/internal/engine"
	"upim/internal/isa"
	"upim/internal/stats"
)

// ErrNoSignature reports a point outside the calibration's signature table
// (unknown benchmark/mode/tasklets/scale/DPUs combination). Such points are
// not estimable and must be simulated; the two-tier explorer forces them
// into the simulation band.
var ErrNoSignature = errors.New("estimate: no calibration signature for point")

// Estimate is one point's analytical prediction: kernel cycles, modeled
// times and the event-level energy breakdown. Estimates are deterministic
// pure functions of (point, calibration, energy profile), which is what lets
// the explorer persist and reproduce them byte-identically across resumes.
type Estimate struct {
	// Calibration names the calibration profile the prediction came from.
	Calibration string `json:"calibration"`
	// KernelCycles is the predicted per-DPU kernel cycle count.
	KernelCycles float64 `json:"kernel_cycles"`
	// KernelSeconds/TransferSeconds/TotalSeconds mirror host.Report's
	// wall-clock model: predicted kernel time, the anchor's transfer time
	// (invariant across the core-side timing axes), and their sum.
	KernelSeconds   float64 `json:"kernel_seconds"`
	TransferSeconds float64 `json:"transfer_seconds"`
	TotalSeconds    float64 `json:"total_seconds"`
	// Energy is the predicted event-level energy report (per-component
	// picojoules under the estimator's TechProfile).
	Energy energy.Report `json:"energy"`
}

// MicroJoules returns the predicted total energy in µJ.
func (e *Estimate) MicroJoules() float64 { return e.Energy.MicroJoules() }

// EDPMicroJouleMS returns the predicted energy-delay product in µJ·ms.
func (e *Estimate) EDPMicroJouleMS() float64 {
	return e.Energy.EDPMicroJouleMS(e.TotalSeconds)
}

// Estimator predicts performance and energy for simulation points under one
// calibration and one energy TechProfile. It is immutable after New and safe
// for concurrent use.
type Estimator struct {
	cal  *Calibration
	prof *energy.TechProfile
	sigs map[sigKey]*Signature
}

// New builds an estimator from a calibration (nil = the committed default)
// and an energy TechProfile (nil = the committed default). The profile must
// be the same one any energy/EDP goals are evaluated under — the two-tier
// explorer enforces this.
func New(cal *Calibration, prof *energy.TechProfile) (*Estimator, error) {
	cal = ResolveCalibration(cal)
	if err := cal.Validate(); err != nil {
		return nil, err
	}
	e := &Estimator{
		cal:  cal,
		prof: energy.ResolveProfile(prof),
		sigs: make(map[sigKey]*Signature, len(cal.Signatures)),
	}
	for i := range cal.Signatures {
		s := &cal.Signatures[i]
		e.sigs[s.key()] = s
	}
	return e, nil
}

// Calibration returns the estimator's calibration.
func (e *Estimator) Calibration() *Calibration { return e.cal }

// ProfileName returns the energy TechProfile estimates are priced under.
func (e *Estimator) ProfileName() string { return e.prof.Name }

// lookup finds the signature for a point (exact identity match). Points
// carrying a machine description run an alternative architecture backend
// the UPMEM-fitted calibration knows nothing about; they are never
// estimable and always go straight to their backend.
func (e *Estimator) lookup(p engine.Point) (*Signature, bool) {
	if p.Machine != nil {
		return nil, false
	}
	dpus := p.DPUs
	if dpus < 1 {
		dpus = 1
	}
	s, ok := e.sigs[sigKey{
		bench:    p.Benchmark,
		mode:     p.Config.Mode.String(),
		tasklets: p.Config.NumTasklets,
		scale:    p.Scale.String(),
		dpus:     dpus,
	}]
	return s, ok
}

// Estimable reports whether the calibration covers the point's workload
// signature (benchmark, mode, tasklet count, scale, DPU count).
func (e *Estimator) Estimable(p engine.Point) bool {
	_, ok := e.lookup(p)
	return ok
}

// Estimate predicts the point's kernel cycles, modeled times and energy.
// The error is ErrNoSignature when the calibration does not cover the
// point's workload (match with errors.Is).
//
// The model extrapolates the signature's issue-slot breakdown across the
// timing axes — frequency, MRAM-link width, the ILP ladder (forwarding,
// unified RF, issue width, the frequency doubler) — and treats every other
// configuration field as unchanged from the anchor; event counters are
// carried over unchanged (instruction and traffic counts are properties of
// the workload, not the clocking), which is also what makes the energy
// prediction a straight reuse of the simulator's linear event model.
func (e *Estimator) Estimate(p engine.Point) (*Estimate, error) {
	sig, ok := e.lookup(p)
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s tasklets=%d scale=%s dpus=%d",
			ErrNoSignature, p.Benchmark, p.Config.Mode, p.Config.NumTasklets, p.Scale, max(p.DPUs, 1))
	}
	cfg := p.Config
	x := features(sig, cfg)
	cycles := x.issue + x.mem + x.rev + x.rf
	// The prediction can never undercut the structural floor: every issue —
	// scalar instruction, or warp issue under SIMT, where one slot retires a
	// whole warp's lanes — needs an issue slot.
	issues := sig.Instructions
	if sig.Mode == config.ModeSIMT.String() {
		issues = sig.VectorIssues
	}
	if floor := issues / x.iw; cycles < floor {
		cycles = floor
	}
	if cycles < 1 {
		cycles = 1
	}

	kernelSec := cycles / (float64(cfg.FreqMHz) * 1e6)
	est := &Estimate{
		Calibration:     e.cal.Name,
		KernelCycles:    cycles,
		KernelSeconds:   kernelSec,
		TransferSeconds: sig.TransferSeconds,
		TotalSeconds:    kernelSec + sig.TransferSeconds,
	}
	st := sig.pseudoStats(cycles)
	est.Energy = energy.OfRun(e.prof, cfg, []stats.DPU{st}, uint64(sig.BytesIn), uint64(sig.BytesOut))
	return est, nil
}

// featureVec is the transformed slot decomposition whose sum is the cycle
// prediction.
type featureVec struct {
	iw                  float64
	issue, mem, rev, rf float64
}

// features transforms the anchor's issue-slot buckets to the target
// configuration. At the anchor configuration every scale factor is 1 and the
// four slot features sum exactly to the anchor's cycle count (the issue-slot
// accounting identity), so their plain sum reproduces anchors exactly and
// needs no fitted weights; probe configurations exercise the analytic
// scalings, and their error is what the committed bounds measure.
func features(sig *Signature, cfg config.Config) featureVec {
	iw := float64(cfg.IssueWidth)
	if iw < 1 {
		iw = 1
	}
	issue := sig.Issued / sig.issueGain(iw, cfg)

	// Memory waits follow an interval model. Raw demand has a bandwidth part
	// — the MRAM link occupancy, whose absolute bandwidth is anchored to the
	// 350 MHz reference clock, so in core cycles it scales with frequency
	// and inversely with link width — and a latency part, the idle the
	// anchor could not hide, which is absolute time and scales with
	// frequency. The anchor hid exactly its link occupancy (in anchor
	// cycles) behind other threads' issue work, and what demand exceeds that
	// cover is exposed as idle. At the anchor this reduces to IdleMemory
	// exactly; at 2x frequency exposed idle grows superlinearly (demand
	// doubles, cover does not), and a wider link collapses it faster than
	// linearly — both nonlinearities the probe runs exhibit.
	fRatio := float64(cfg.FreqMHz) / float64(sig.FreqMHz)
	linkNow := sig.linkBytes() / float64(cfg.LinkBytesPerCycle) *
		float64(cfg.FreqMHz) / config.LinkReferenceFreqMHz
	linkAnchor := sig.linkBytes() / float64(sig.LinkBytesPerCycle) *
		float64(sig.FreqMHz) / config.LinkReferenceFreqMHz
	mem := math.Max(linkNow+sig.IdleMemory*fRatio-linkAnchor, 0)

	// Dependency waits: forwarding replaces the revolver distance with the
	// producer's forwarding latency, weighted by the signature's instruction
	// mix (loads and mul/div forward later than ALU results).
	revScale := 1.0
	if cfg.Forwarding && cfg.RevolverCycles > 0 {
		revScale = math.Min(1, sig.fwdLatency(cfg)/float64(cfg.RevolverCycles))
	}

	rfScale := 1.0
	if cfg.UnifiedRF {
		rfScale = 0
	}

	// Issuing cycles shrink with a wider issue slot only as far as the
	// workload's thread-level parallelism allows (the Fig 7 histogram);
	// waiting cycles are latency, not slots, and do not shrink at all.
	return featureVec{
		iw:    iw,
		issue: issue,
		mem:   mem,
		rev:   sig.IdleRevolver * revScale,
		rf:    sig.IdleRF * rfScale,
	}
}

// tlpReps are representative issuable-thread counts per Fig 7 histogram bin
// (0, 1~4, 5~8, 9~12, 13~16, 17~24) — bin midpoints, clamped per signature
// to its tasklet count.
var tlpReps = [stats.TLPBins]float64{0, 2.5, 6.5, 10.5, 14.5, 20.5}

// issueGain returns the expected per-cycle issue throughput at issue width
// iw relative to single-issue: E[min(candidates, iw)] over the cycles with
// at least one issuable thread, estimated from the TLP histogram. gain(1)
// is exactly 1, and a workload whose threads are mostly blocked gains
// almost nothing from dual issue — which is why the S feature helps some
// workloads and not others. Two structural ceilings temper the histogram:
// under the split odd/even register file a second slot can only co-issue a
// thread of opposite parity, so only half the extra issuable threads are
// candidates (the unified RF lifts that); and without forwarding a thread
// re-arms its revolver timer after every issue, so sustained throughput is
// capped at Tasklets/RevolverCycles no matter how deep the issuable queue
// looks — which is why S alone buys little and S+D much more, matching the
// paper's Fig 12 ladder.
func (s *Signature) issueGain(iw float64, cfg config.Config) float64 {
	if iw <= 1 {
		return 1
	}
	tasklets := math.Max(float64(s.Tasklets), 1)
	weight, gain := 0.0, 0.0
	for b := 1; b < stats.TLPBins && b < len(s.TLPHist); b++ {
		rep := math.Min(tlpReps[b], tasklets)
		if !cfg.UnifiedRF {
			rep = 1 + (rep-1)/2
		}
		weight += s.TLPHist[b]
		gain += s.TLPHist[b] * math.Min(rep, iw)
	}
	if weight == 0 {
		return 1
	}
	g := gain / weight
	if !cfg.Forwarding && cfg.RevolverCycles > 0 {
		g = math.Min(g, tasklets/float64(cfg.RevolverCycles))
	}
	return math.Max(g, 1)
}

// linkBytes returns the traffic that crosses the MRAM<->WRAM datapath under
// the signature's memory mode — the same routing convention the energy
// model's Link component uses.
func (s *Signature) linkBytes() float64 {
	switch s.Mode {
	case config.ModeCache.String():
		return s.DRAMBytesRead
	case config.ModeSIMT.String():
		return s.DRAMBytesRead + s.DRAMBytesWritten
	default: // scratchpad: explicit DMA staging
		return s.DMABytes
	}
}

// fwdLatency returns the mix-weighted forwarding latency in cycles.
func (s *Signature) fwdLatency(cfg config.Config) float64 {
	lat := func(c isa.Class) float64 {
		switch c {
		case isa.ClassMulDiv:
			return float64(cfg.FwdLatMulDiv)
		case isa.ClassLoadStore, isa.ClassDMA:
			return float64(cfg.FwdLatLoad)
		default:
			return float64(cfg.FwdLatALU)
		}
	}
	total, weighted := 0.0, 0.0
	for c := 0; c < isa.NumClasses && c < len(s.Mix); c++ {
		total += s.Mix[c]
		weighted += s.Mix[c] * lat(isa.Class(c))
	}
	if total == 0 {
		return float64(cfg.FwdLatALU)
	}
	return weighted / total
}

// pseudoStats builds the counter record the energy model prices: the
// signature's event counters with the predicted cycle count (leakage
// integrates predicted time, events are workload invariants).
func (s *Signature) pseudoStats(cycles float64) stats.DPU {
	var st stats.DPU
	st.Cycles = uint64(math.Round(cycles))
	st.Instructions = uint64(math.Round(s.Instructions))
	st.VectorIssues = uint64(math.Round(s.VectorIssues))
	for c := 0; c < isa.NumClasses && c < len(s.Mix); c++ {
		st.Mix[c] = uint64(math.Round(s.Mix[c]))
	}
	st.RFReads = uint64(math.Round(s.RFReads))
	st.RFWrites = uint64(math.Round(s.RFWrites))
	st.WRAMReads = uint64(math.Round(s.WRAMReads))
	st.WRAMWrites = uint64(math.Round(s.WRAMWrites))
	st.DMAs = uint64(math.Round(s.DMAs))
	st.DMABytes = uint64(math.Round(s.DMABytes))
	st.DRAM.BytesRead = uint64(math.Round(s.DRAMBytesRead))
	st.DRAM.BytesWritten = uint64(math.Round(s.DRAMBytesWritten))
	st.DRAM.RowHits = uint64(math.Round(s.DRAMRowHits))
	st.DRAM.RowMisses = uint64(math.Round(s.DRAMRowMisses))
	st.DRAM.RowEmpty = uint64(math.Round(s.DRAMRowEmpty))
	st.DRAM.Refreshes = uint64(math.Round(s.DRAMRefreshes))
	st.ICache.Accesses = uint64(math.Round(s.ICacheAccesses))
	st.DCache.Accesses = uint64(math.Round(s.DCacheAccesses))
	return st
}
