// Package workload turns applications into iteration cost profiles: for a
// loop of N independent iterations, a Profile knows the reference-core
// execution time of each iteration and answers range sums in O(1) via
// prefix sums. The simulation executors consume profiles; the per-iteration
// costs of the paper's two applications come from the real kernels in
// internal/mandelbrot and internal/spinimage.
//
// Calibration: the paper does not state loop sizes or per-iteration times,
// so profiles are normalized to a target mean iteration cost. The *shape*
// (relative cost of each iteration) always comes from the real computation;
// only the scale is calibrated, as documented in DESIGN.md §1.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/mandelbrot"
	"repro/internal/sim"
	"repro/internal/spinimage"
	"repro/internal/stats"
)

// Profile is an immutable per-iteration cost table with O(1) range sums.
type Profile struct {
	name   string
	costs  []float64
	prefix []float64 // prefix[i] = Σ costs[0..i)

	covOnce sync.Once
	cov     float64
}

// New builds a profile; every cost must be positive.
func New(name string, costs []float64) (*Profile, error) {
	p := &Profile{name: name, costs: costs, prefix: make([]float64, len(costs)+1)}
	for i, c := range costs {
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("workload %q: cost[%d] = %v, must be positive and finite", name, i, c)
		}
		p.prefix[i+1] = p.prefix[i] + c
	}
	return p, nil
}

// MustNew is New, panicking on error.
func MustNew(name string, costs []float64) *Profile {
	p, err := New(name, costs)
	if err != nil {
		panic(err)
	}
	return p
}

// Name returns the workload name.
func (p *Profile) Name() string { return p.name }

// N reports the loop size.
func (p *Profile) N() int { return len(p.costs) }

// Cost returns iteration i's reference-core execution time in seconds.
func (p *Profile) Cost(i int) float64 { return p.costs[i] }

// Range returns the total cost of iterations [a, b) in O(1).
func (p *Profile) Range(a, b int) sim.Time {
	if a < 0 || b > len(p.costs) || a > b {
		panic(fmt.Sprintf("workload %q: Range(%d, %d) out of [0,%d]", p.name, a, b, len(p.costs)))
	}
	return sim.Time(p.prefix[b] - p.prefix[a])
}

// Total returns the serial execution time of the whole loop.
func (p *Profile) Total() sim.Time { return sim.Time(p.prefix[len(p.costs)]) }

// Mean returns the mean iteration cost.
func (p *Profile) Mean() float64 {
	if len(p.costs) == 0 {
		return 0
	}
	return p.prefix[len(p.costs)] / float64(len(p.costs))
}

// CoV returns the coefficient of variation of iteration costs — the
// irregularity measure the DLS literature keys on. The O(N) statistic is
// computed once per profile: sweeps ask for it in every cell.
func (p *Profile) CoV() float64 {
	p.covOnce.Do(func() { p.cov = stats.CoV(p.costs) })
	return p.cov
}

// Costs returns the backing cost slice; callers must not modify it.
func (p *Profile) Costs() []float64 { return p.costs }

// FromCounts converts integer work counts (escape iterations, candidate
// points, ...) into a profile with the given mean iteration cost. Each
// iteration costs base + k·count, where base = baseFrac·meanCost models the
// fixed loop-body overhead and k is solved so the profile mean is exactly
// meanCost. Degenerate all-zero counts yield a constant profile.
func FromCounts(name string, counts []int, meanCost, baseFrac float64) *Profile {
	if meanCost <= 0 {
		panic(fmt.Sprintf("workload %q: meanCost %g must be positive", name, meanCost))
	}
	if baseFrac < 0 || baseFrac >= 1 {
		panic(fmt.Sprintf("workload %q: baseFrac %g out of [0,1)", name, baseFrac))
	}
	var sum float64
	for _, c := range counts {
		sum += float64(c)
	}
	costs := make([]float64, len(counts))
	base := baseFrac * meanCost
	if sum == 0 {
		for i := range costs {
			costs[i] = meanCost
		}
		return MustNew(name, costs)
	}
	meanCount := sum / float64(len(counts))
	k := (meanCost - base) / meanCount
	for i, c := range counts {
		costs[i] = base + k*float64(c)
	}
	return MustNew(name, costs)
}

// ---------------------------------------------------------------- kernels --

// MandelbrotParams are the experiment defaults for the Mandelbrot workload:
// a 1024×1024 grid (2²⁰ iterations) at 143 µs mean iteration cost, chosen so
// per-iteration granularity sits where the paper's SS observations are
// reproducible (see DESIGN.md). Scale divides the row count, preserving the
// mean cost so every overhead-to-granularity ratio is scale-invariant.
// Profiles are memoized under ParseSpec's iteration budget; past it every
// call builds the profile again.
func MandelbrotProfile(scale int) *Profile {
	if scale < 1 {
		scale = 1
	}
	p, _ := profiles.Get(profileKey{spec: "mandelbrot", seed: int64(scale)}, func() (*Profile, error) {
		g := mandelbrot.Default(1024, 1024/scale)
		return FromCounts(fmt.Sprintf("Mandelbrot-%dx%d", g.Width, g.Height),
			g.EscapeCounts(), 143e-6, 0.05), nil
	})
	return p
}

// PSIAProfile builds the PSIA workload: spin-image generation over a torus
// point cloud of 2²²/scale oriented points at 45 µs mean iteration cost
// (≈100 candidate points binned per image at sub-µs each). Iteration cost is proportional
// to the candidate count the grid scan examines for that point's image —
// the real inner-loop trip count. PSIA iterations are *finer* than
// Mandelbrot's (45 µs vs 143 µs), which is why the paper's §5 finds the SS
// scheduling overhead "more visible in PSIA than Mandelbrot". Profiles are
// memoized as MandelbrotProfile's are.
func PSIAProfile(scale int) *Profile {
	if scale < 1 {
		scale = 1
	}
	p, _ := profiles.Get(profileKey{spec: "psia", seed: int64(scale)}, func() (*Profile, error) {
		n := (1 << 22) / scale
		radius := math.Sqrt(674.0 / float64(n)) // targets ≈96 mean candidates
		cloud := spinimage.Torus(n, 2.0, 0.8, 0.02, 20190322)
		counts := spinimage.CandidateCounts(cloud.Points, radius)
		return FromCounts(fmt.Sprintf("PSIA-%d", n), counts, 45e-6, 0.10), nil
	})
	return p
}

// -------------------------------------------------------------- synthetic --

// Constant returns n iterations of identical cost.
func Constant(n int, cost float64) *Profile {
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = cost
	}
	return MustNew(fmt.Sprintf("constant-%d", n), costs)
}

// Uniform draws costs uniformly from [lo, hi).
func Uniform(n int, lo, hi float64, seed int64) *Profile {
	rng := rand.New(rand.NewSource(seed))
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = lo + (hi-lo)*rng.Float64()
	}
	return MustNew(fmt.Sprintf("uniform-%d", n), costs)
}

// Gaussian draws costs from N(mean, sigma²), truncated at mean/100 so they
// stay positive.
func Gaussian(n int, mean, sigma float64, seed int64) *Profile {
	rng := rand.New(rand.NewSource(seed))
	costs := make([]float64, n)
	floor := mean / 100
	for i := range costs {
		c := mean + sigma*rng.NormFloat64()
		if c < floor {
			c = floor
		}
		costs[i] = c
	}
	return MustNew(fmt.Sprintf("gaussian-%d", n), costs)
}

// Exponential draws costs from Exp(1/mean): high variance (CoV = 1), the
// classic model for highly irregular loops.
func Exponential(n int, mean float64, seed int64) *Profile {
	rng := rand.New(rand.NewSource(seed))
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = mean * (rng.ExpFloat64() + 1e-6)
	}
	return MustNew(fmt.Sprintf("exponential-%d", n), costs)
}

// Gamma draws costs from a Gamma(shape, scale) distribution (Marsaglia &
// Tsang sampling); shape < 1 gives CoV > 1.
func Gamma(n int, shape, scale float64, seed int64) *Profile {
	if shape <= 0 || scale <= 0 {
		panic("workload: Gamma requires positive shape and scale")
	}
	rng := rand.New(rand.NewSource(seed))
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = gammaSample(rng, shape)*scale + 1e-12
	}
	return MustNew(fmt.Sprintf("gamma-%d", n), costs)
}

func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) · U^(1/a)
		return gammaSample(rng, shape+1) * math.Pow(rng.Float64()+1e-300, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Bimodal mixes two Gaussians: frac of iterations around meanHot, the rest
// around meanCold; a model for loops with an expensive kernel subset.
func Bimodal(n int, meanCold, meanHot, frac float64, seed int64) *Profile {
	rng := rand.New(rand.NewSource(seed))
	costs := make([]float64, n)
	for i := range costs {
		mean := meanCold
		if rng.Float64() < frac {
			mean = meanHot
		}
		c := mean * (1 + 0.05*rng.NormFloat64())
		if c < meanCold/100 {
			c = meanCold / 100
		}
		costs[i] = c
	}
	return MustNew(fmt.Sprintf("bimodal-%d", n), costs)
}

// Increasing ramps costs linearly from lo to hi across the loop — the
// adversarial case for GSS (big early chunks swallow cheap work).
func Increasing(n int, lo, hi float64) *Profile {
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = lo + (hi-lo)*float64(i)/float64(maxInt(n-1, 1))
	}
	return MustNew(fmt.Sprintf("increasing-%d", n), costs)
}

// Decreasing ramps costs linearly from hi down to lo — the case FAC2
// handles better than GSS, as the paper notes in §2.
func Decreasing(n int, lo, hi float64) *Profile {
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = hi - (hi-lo)*float64(i)/float64(maxInt(n-1, 1))
	}
	return MustNew(fmt.Sprintf("decreasing-%d", n), costs)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
