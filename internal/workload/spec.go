package workload

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ParseSpec builds a workload from a compact scenario string of the form
// "kind" or "kind:key=val,key=val". It is the CLI/Config surface of the
// synthetic generators; the two paper kernels are reachable too, so every
// sweep axis accepts one flag.
//
// Kinds and their keys (all costs in seconds; seed comes from the caller):
//
//	constant     n, mean
//	uniform      n, lo, hi            (default lo=mean/2, hi=3·mean/2)
//	gaussian     n, mean, sigma | cv  (default cv=0.3)
//	exponential  n, mean
//	gamma        n, shape, scale      (default shape=0.5, scale=mean/shape)
//	bimodal      n, lo, hi, frac      (cold mean lo, hot mean hi; default
//	                                   lo=mean/2, hi=4·mean, frac=0.2)
//	increasing   n, lo, hi            (linear ramp lo → hi)
//	decreasing   n, lo, hi            (linear ramp hi → lo)
//	mandelbrot   scale                (the paper kernel at 1/scale size)
//	psia         scale
//
// Shared defaults: n=4096, mean=100e-6, scale=8.
//
// Successful parses are memoized process-wide: profiles are immutable,
// and sweep drivers resolve the same spec in every cell. The memo key is
// the spec alone for kinds that never read the seed (constant, increasing,
// decreasing, mandelbrot and psia), so cells differing only in seed share
// one profile and its cached CoV; the random kinds key by (spec, seed).
// The memo retains at most specCacheBudget iterations and serves
// unretained profiles beyond it.
func ParseSpec(spec string, seed int64) (*Profile, error) {
	return specCache.parse(spec, seed)
}

// specKey identifies one ParseSpec construction. The seed participates
// only for kinds that read it (see readsSeed); seed-free kinds key by the
// spec alone, so fresh-seed cells share one profile and its cached CoV.
type specKey struct {
	spec string
	seed int64
}

// specCacheBudget bounds the memo by the iterations its profiles hold:
// each iteration costs 16 bytes (cost plus prefix sum), so 1<<23 pins at
// most 128 MiB. CLI sweeps resolve a handful of distinct specs, but a
// long-running daemon sees client-controlled keys, and one fresh-seed
// spec at the service's largest n holds 64 MiB. Past the budget ParseSpec
// still works, it just stops retaining (profiles are pure functions of the
// key, so skipping the memo changes nothing but speed).
const specCacheBudget = 1 << 23

// specMemo is the ParseSpec memo: profiles keyed by specKey, retained
// while their iteration total stays within budget.
type specMemo struct {
	profiles sync.Map // specKey -> *Profile
	iters    atomic.Int64
	budget   int64
}

var specCache = specMemo{budget: specCacheBudget}

// parse resolves spec through the memo.
func (m *specMemo) parse(spec string, seed int64) (*Profile, error) {
	key := specKey{spec: spec}
	if readsSeed(specKind(spec)) {
		key.seed = seed
	}
	if v, ok := m.profiles.Load(key); ok {
		return v.(*Profile), nil
	}
	p, err := parseSpec(spec, seed)
	if err != nil {
		return nil, err
	}
	if !m.reserve(int64(p.N())) {
		return p, nil // over budget: serve unretained (see specCacheBudget)
	}
	if v, loaded := m.profiles.LoadOrStore(key, p); loaded {
		m.iters.Add(-int64(p.N()))
		return v.(*Profile), nil
	}
	return p, nil
}

// reserve claims n iterations of the budget, or reports that they do not
// fit. Claiming before storing keeps concurrent misses from overshooting;
// a claim that does not fit is given back, and a miss that sees one in
// flight merely serves its profile unretained.
func (m *specMemo) reserve(n int64) bool {
	if m.iters.Add(n) <= m.budget {
		return true
	}
	m.iters.Add(-n)
	return false
}

// readsSeed reports whether a spec kind draws its costs from the seed.
// It is the one place that decides: parseSpec hands seed-free kinds a
// zero seed, and the memo drops the seed from their key.
func readsSeed(kind string) bool {
	switch kind {
	case "constant", "increasing", "decreasing",
		"mandelbrot", "mandel", "psia", "spinimage":
		return false
	}
	return true
}

// specParams parses a spec's head: the kind token and its key=val
// parameter map, for parseSpec.
func specParams(spec string) (string, map[string]float64, error) {
	kind := specKind(spec)
	if kind == "" {
		return "", nil, fmt.Errorf("workload: empty spec")
	}
	kv := map[string]float64{}
	err := eachParam(spec, func(key string, val float64) { kv[key] = val })
	if err != nil {
		return "", nil, err
	}
	return kind, kv, nil
}

// eachParam parses a spec's key=val parameters in order and hands each to
// fn with its key trimmed and lower-cased (which allocates only for a key
// with upper-case letters) and its value parsed. The first malformed
// parameter stops the walk with parseSpec's error.
func eachParam(spec string, fn func(key string, val float64)) error {
	_, rest, _ := strings.Cut(strings.TrimSpace(spec), ":")
	for more := rest != ""; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("workload: spec %q: bad parameter %q (want key=val)", spec, part)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return fmt.Errorf("workload: spec %q: parameter %q: %v", spec, part, err)
		}
		fn(strings.ToLower(strings.TrimSpace(k)), f)
	}
	return nil
}

// specKind returns a spec's kind token, lower-cased.
func specKind(spec string) string {
	kind, _, _ := strings.Cut(strings.TrimSpace(spec), ":")
	return strings.ToLower(strings.TrimSpace(kind))
}

// SpecN reports the iteration count a spec would produce, without
// building the profile (no cost-slice allocation) or a parameter map: it
// reads n and scale as the parameters go by. Services use it to
// bound request sizes before ParseSpec commits memory; parameter errors
// the full parse would catch later (bad lo/hi etc.) are not detected here.
func SpecN(spec string) (int, error) {
	kind := specKind(spec)
	if kind == "" {
		return 0, fmt.Errorf("workload: empty spec")
	}
	// The last value given for a key wins, as in the parameter map.
	n, scale := 4096.0, 8.0
	err := eachParam(spec, func(key string, val float64) {
		switch key {
		case "n":
			n = val
		case "scale":
			scale = val
		}
	})
	if err != nil {
		return 0, err
	}
	switch kind {
	case "mandelbrot", "mandel":
		scale := int(scale)
		if scale < 1 {
			scale = 1
		}
		return 1024 * (1024 / scale), nil
	case "psia", "spinimage":
		scale := int(scale)
		if scale < 1 {
			scale = 1
		}
		return (1 << 22) / scale, nil
	case "constant", "uniform", "gaussian", "normal", "exponential", "exp",
		"gamma", "bimodal", "increasing", "decreasing":
		n := int(n)
		if n <= 0 {
			return 0, fmt.Errorf("workload: spec %q: n = %d, must be positive", spec, n)
		}
		return n, nil
	}
	return 0, fmt.Errorf("workload: unknown kind %q", kind)
}

func parseSpec(spec string, seed int64) (*Profile, error) {
	kind, kv, err := specParams(spec)
	if err != nil {
		return nil, err
	}
	if !readsSeed(kind) {
		seed = 0 // seed-free kinds are pure functions of the spec
	}
	known := func(keys ...string) error {
		for k := range kv {
			ok := false
			for _, want := range keys {
				if k == want {
					ok = true
				}
			}
			if !ok {
				return fmt.Errorf("workload: spec %q: unknown parameter %q (valid: %s)",
					spec, k, strings.Join(keys, ", "))
			}
		}
		return nil
	}
	get := func(key string, def float64) float64 {
		if v, ok := kv[key]; ok {
			return v
		}
		return def
	}
	mean := get("mean", 100e-6)
	n := int(get("n", 4096))
	if n <= 0 {
		return nil, fmt.Errorf("workload: spec %q: n = %d, must be positive", spec, n)
	}
	if mean <= 0 {
		return nil, fmt.Errorf("workload: spec %q: mean = %g, must be positive", spec, mean)
	}

	switch kind {
	case "constant":
		if err := known("n", "mean"); err != nil {
			return nil, err
		}
		return Constant(n, mean), nil
	case "uniform":
		if err := known("n", "mean", "lo", "hi"); err != nil {
			return nil, err
		}
		lo, hi := get("lo", mean/2), get("hi", 1.5*mean)
		if lo <= 0 || hi <= lo {
			return nil, fmt.Errorf("workload: spec %q: need 0 < lo < hi (got lo=%g hi=%g)", spec, lo, hi)
		}
		return Uniform(n, lo, hi, seed), nil
	case "gaussian", "normal":
		if err := known("n", "mean", "sigma", "cv"); err != nil {
			return nil, err
		}
		sigma := get("sigma", get("cv", 0.3)*mean)
		if sigma < 0 {
			return nil, fmt.Errorf("workload: spec %q: sigma = %g, must be non-negative", spec, sigma)
		}
		return Gaussian(n, mean, sigma, seed), nil
	case "exponential", "exp":
		if err := known("n", "mean"); err != nil {
			return nil, err
		}
		return Exponential(n, mean, seed), nil
	case "gamma":
		if err := known("n", "mean", "shape", "scale"); err != nil {
			return nil, err
		}
		shape := get("shape", 0.5)
		if shape <= 0 {
			return nil, fmt.Errorf("workload: spec %q: shape = %g, must be positive", spec, shape)
		}
		return Gamma(n, shape, get("scale", mean/shape), seed), nil
	case "bimodal":
		if err := known("n", "mean", "lo", "hi", "frac"); err != nil {
			return nil, err
		}
		lo, hi, frac := get("lo", mean/2), get("hi", 4*mean), get("frac", 0.2)
		if lo <= 0 || hi <= lo || frac < 0 || frac > 1 {
			return nil, fmt.Errorf("workload: spec %q: need 0 < lo < hi and frac in [0,1] (got lo=%g hi=%g frac=%g)",
				spec, lo, hi, frac)
		}
		return Bimodal(n, lo, hi, frac, seed), nil
	case "increasing":
		if err := known("n", "mean", "lo", "hi"); err != nil {
			return nil, err
		}
		lo, hi := get("lo", mean/5), get("hi", 9*mean/5)
		if lo <= 0 || hi <= lo {
			return nil, fmt.Errorf("workload: spec %q: need 0 < lo < hi (got lo=%g hi=%g)", spec, lo, hi)
		}
		return Increasing(n, lo, hi), nil
	case "decreasing":
		if err := known("n", "mean", "lo", "hi"); err != nil {
			return nil, err
		}
		lo, hi := get("lo", mean/5), get("hi", 9*mean/5)
		if lo <= 0 || hi <= lo {
			return nil, fmt.Errorf("workload: spec %q: need 0 < lo < hi (got lo=%g hi=%g)", spec, lo, hi)
		}
		return Decreasing(n, lo, hi), nil
	case "mandelbrot", "mandel":
		if err := known("scale"); err != nil {
			return nil, err
		}
		return MandelbrotProfile(int(get("scale", 8))), nil
	case "psia", "spinimage":
		if err := known("scale"); err != nil {
			return nil, err
		}
		return PSIAProfile(int(get("scale", 8))), nil
	}
	return nil, fmt.Errorf("workload: unknown kind %q (constant, uniform, gaussian, exponential, gamma, bimodal, increasing, decreasing, mandelbrot, psia)", kind)
}
