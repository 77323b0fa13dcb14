// Package dls implements dynamic loop self-scheduling (DLS) techniques:
// chunk-size calculators that decide how many loop iterations a requesting
// worker receives at each scheduling step.
//
// The package provides the techniques evaluated by Eleliemy & Ciorba
// (arXiv:1903.09510) — STATIC, SS, GSS, TSS, FAC, FAC2 — plus the related
// techniques the paper builds on: fixed-size chunking (FSC), weighted
// factoring (WF), trapezoid factoring self-scheduling (TFSS) and the
// adaptive weighted factoring (AWF) family.
//
// Every technique exposes its chunk size as a function of the scheduling
// step (and, for weighted techniques, the requesting worker). This is the
// form required by the distributed chunk-calculation approach (Eleliemy &
// Ciorba, PDP 2019) where workers atomically increment a shared step counter
// and compute their own chunk without a central master. Σ Chunk(s) over
// steps always diverges, so exact loop coverage is guaranteed by clamping
// against the scheduled-iterations counter.
package dls

import (
	"fmt"
	"strings"
)

// Technique enumerates the implemented self-scheduling techniques.
type Technique int

// Supported techniques.
const (
	// STATIC divides the loop into one equal chunk per worker (straight
	// static chunking, the lowest-overhead extreme).
	STATIC Technique = iota
	// SS is pure self-scheduling: one iteration per request (highest
	// overhead, best balance).
	SS
	// FSC is fixed-size chunking with the Kruskal–Weiss optimal chunk size.
	FSC
	// GSS is guided self-scheduling (Polychronopoulos & Kuck).
	GSS
	// TSS is trapezoid self-scheduling (Tzen & Ni).
	TSS
	// FAC is factoring with known iteration-time mean and standard
	// deviation (Hummel, Schonberg & Flynn).
	FAC
	// FAC2 is the practical factoring variant that halves the remaining
	// iterations per batch.
	FAC2
	// WF is weighted factoring: FAC2 batches, scaled per worker weight.
	WF
	// TFSS is trapezoid factoring self-scheduling (Chronopoulos et al.):
	// batches of equal chunks whose size tracks the TSS linear decrease.
	TFSS
	// AWFB is adaptive weighted factoring, batch-adaptive variant.
	AWFB
	// AWFC is adaptive weighted factoring, chunk-adaptive variant.
	AWFC
	// AWFD is AWF-B with scheduling overhead included in the measured time.
	AWFD
	// AWFE is AWF-C with scheduling overhead included in the measured time.
	AWFE
	// AF is adaptive factoring (Banicescu & Liu): FAC with per-worker mean
	// and variance estimated online instead of supplied a priori.
	AF
	// RND is random self-scheduling (LaPeSD-libGOMP): chunk sizes drawn
	// uniformly from [1, ⌈N/2P⌉] by a deterministic hash of the step.
	RND
)

var techniqueNames = map[Technique]string{
	STATIC: "STATIC", SS: "SS", FSC: "FSC", GSS: "GSS", TSS: "TSS",
	FAC: "FAC", FAC2: "FAC2", WF: "WF", TFSS: "TFSS",
	AWFB: "AWF-B", AWFC: "AWF-C", AWFD: "AWF-D", AWFE: "AWF-E",
	AF: "AF", RND: "RND",
}

// String returns the conventional technique name (e.g. "FAC2", "AWF-B").
func (t Technique) String() string {
	if s, ok := techniqueNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Technique(%d)", int(t))
}

// techniqueByKey maps each technique's parseKey to the technique. Built
// once: every decoded "inter" and "intra" field is a lookup here.
var techniqueByKey = func() map[string]Technique {
	m := make(map[string]Technique, len(techniqueNames))
	for t, s := range techniqueNames {
		m[parseKey(s)] = t
	}
	return m
}()

// parseKey normalizes a technique name for Parse: trimmed, dashes
// removed, upper-cased.
func parseKey(name string) string {
	return strings.ToUpper(strings.ReplaceAll(strings.TrimSpace(name), "-", ""))
}

// Parse maps a technique name (case-insensitive, "AWF-B"/"AWFB" both
// accepted) back to its Technique value.
func Parse(name string) (Technique, error) {
	if t, ok := techniqueByKey[parseKey(name)]; ok {
		return t, nil
	}
	return 0, fmt.Errorf("dls: unknown technique %q", name)
}

// All returns the techniques in a stable presentation order.
func All() []Technique {
	return []Technique{STATIC, SS, FSC, GSS, TSS, FAC, FAC2, WF, TFSS, AWFB, AWFC, AWFD, AWFE, AF, RND}
}

// IsAdaptive reports whether the technique updates itself from runtime
// measurements (the AWF family and AF).
func (t Technique) IsAdaptive() bool {
	return t == AWFB || t == AWFC || t == AWFD || t == AWFE || t == AF
}

// IsWeighted reports whether Chunk depends on the requesting worker.
func (t Technique) IsWeighted() bool {
	return t == WF || t.IsAdaptive()
}

// Params hold the static inputs of a schedule.
type Params struct {
	// N is the total number of loop iterations.
	N int
	// P is the number of workers served at this scheduling level.
	P int
	// MinChunk is the smallest chunk ever produced (default 1).
	MinChunk int
	// Mean and Sigma describe per-iteration execution time; FAC requires
	// both, FSC requires Sigma, and the AWF family uses Mean as the initial
	// rate estimate. They are ignored elsewhere.
	Mean, Sigma float64
	// Overhead is the per-scheduling-operation cost h used by FSC and the
	// AWF-D/E variants.
	Overhead float64
	// Weights are per-worker relative speeds for WF (nil means uniform);
	// they are normalized so their mean is 1.
	Weights []float64
}

func (p *Params) validate(t Technique) error {
	if p.N < 0 {
		return fmt.Errorf("dls: %v: N = %d, must be >= 0", t, p.N)
	}
	if p.P <= 0 {
		return fmt.Errorf("dls: %v: P = %d, must be > 0", t, p.P)
	}
	if p.MinChunk < 0 {
		return fmt.Errorf("dls: %v: MinChunk = %d, must be >= 0", t, p.MinChunk)
	}
	switch t {
	case FAC:
		if p.Mean <= 0 || p.Sigma < 0 {
			return fmt.Errorf("dls: FAC requires Mean > 0 and Sigma >= 0 (got mean=%g sigma=%g)", p.Mean, p.Sigma)
		}
	case FSC:
		if p.Sigma <= 0 || p.Overhead <= 0 {
			return fmt.Errorf("dls: FSC requires Sigma > 0 and Overhead > 0 (got sigma=%g h=%g)", p.Sigma, p.Overhead)
		}
	case WF:
		if p.Weights != nil && len(p.Weights) != p.P {
			return fmt.Errorf("dls: WF got %d weights for %d workers", len(p.Weights), p.P)
		}
		for i, w := range p.Weights {
			if w <= 0 {
				return fmt.Errorf("dls: WF weight[%d] = %g, must be > 0", i, w)
			}
		}
	}
	return nil
}

// Schedule computes chunk sizes for one loop execution. Implementations are
// deterministic functions of (step, worker) plus — for adaptive techniques —
// the measurements recorded so far.
//
// Chunk returns the raw size for scheduling step s (0-based) requested by
// worker w; callers clamp it against the remaining iterations. Chunk never
// returns less than max(1, MinChunk) so that coverage always terminates.
type Schedule interface {
	// Technique identifies the schedule's technique.
	Technique() Technique
	// Params returns the static inputs the schedule was built from
	// (after defaulting, e.g. MinChunk 0 → 1).
	Params() Params
	// Chunk returns the raw chunk size for scheduling step s (0-based)
	// requested by worker w; callers clamp against remaining iterations.
	Chunk(s, w int) int
}

// Adaptive is implemented by schedules that refine themselves from runtime
// feedback (the AWF family). Record reports that worker w executed a chunk
// of the given size in execTime seconds (plus schedTime seconds of
// scheduling overhead, counted only by the D/E variants).
type Adaptive interface {
	Schedule
	// Record reports that worker w executed a chunk of the given size in
	// execTime seconds (plus schedTime seconds of scheduling overhead,
	// counted only by the D/E variants).
	Record(w int, size int, execTime, schedTime float64)
}

// New constructs the schedule for technique t.
func New(t Technique, p Params) (Schedule, error) {
	if err := p.validate(t); err != nil {
		return nil, err
	}
	if p.MinChunk == 0 {
		p.MinChunk = 1
	}
	switch t {
	case STATIC:
		return newStatic(p), nil
	case SS:
		return newSS(p), nil
	case FSC:
		return newFSC(p), nil
	case GSS:
		return newGSS(p), nil
	case TSS:
		return newTSS(p), nil
	case FAC:
		return newFAC(p), nil
	case FAC2:
		return newFAC2(p), nil
	case WF:
		return newWF(p), nil
	case TFSS:
		return newTFSS(p), nil
	case AWFB, AWFC, AWFD, AWFE:
		return newAWF(t, p), nil
	case AF:
		return newAF(p), nil
	case RND:
		return newRND(p), nil
	}
	return nil, fmt.Errorf("dls: unknown technique %v", t)
}

// MustNew is New, panicking on error; for tests and tables of valid configs.
func MustNew(t Technique, p Params) Schedule {
	s, err := New(t, p)
	if err != nil {
		panic(err)
	}
	return s
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		panic("dls: ceilDiv by non-positive divisor")
	}
	return (a + b - 1) / b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
