package workload

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/memo"
)

// ParseSpec builds a workload from a compact scenario string of the form
// "kind" or "kind:key=val,key=val". It is the CLI/Config surface of the
// synthetic generators; the two paper kernels are reachable too, so every
// sweep axis accepts one flag.
//
// Kinds and their keys (all costs in seconds; seed comes from the caller):
//
//	constant     n, mean
//	uniform      n, mean, lo, hi         (default lo=mean/2, hi=3·mean/2)
//	gaussian     n, mean, sigma | cv     (default cv=0.3)
//	exponential  n, mean
//	gamma        n, mean, shape, scale   (default shape=0.5, scale=mean/shape)
//	bimodal      n, mean, lo, hi, frac   (cold mean lo, hot mean hi; default
//	                                      lo=mean/2, hi=4·mean, frac=0.2)
//	increasing   n, mean, lo, hi         (linear ramp lo → hi; default
//	                                      lo=mean/5, hi=9·mean/5)
//	decreasing   n, mean, lo, hi         (linear ramp hi → lo, same defaults)
//	mandelbrot   scale                   (the paper kernel at 1/scale size)
//	psia         scale
//
// Shared defaults: n=4096, mean=100e-6, scale=8. SpecKinds lists the same
// keys, and any other key is an error.
//
// Successful parses are memoized process-wide: profiles are immutable,
// and sweep drivers resolve the same spec in every cell. The memo key is
// the spec alone for kinds that never read the seed (constant, increasing,
// decreasing, mandelbrot and psia), so cells differing only in seed share
// one profile and its cached CoV; the random kinds key by (spec, seed).
// The memo, shared with MandelbrotProfile and PSIAProfile, retains at most
// profileBudget iterations. Past the budget ParseSpec builds the profile
// on every call and serves it unretained: the same costs, rebuilt.
func ParseSpec(spec string, seed int64) (*Profile, error) {
	key := profileKey{spec: spec}
	if readsSeed(specKind(spec)) {
		key.seed = seed
	}
	return profiles.Get(key, func() (*Profile, error) { return parseSpec(spec, seed) })
}

// profileKey identifies one memoized profile: a ParseSpec spec, with the
// seed only for kinds that read it (see readsSeed), or a paper kernel's
// name with its scale in place of the seed. The two never meet: a spec of
// a kernel kind keys no seed, and a kernel's scale is at least 1. It is a
// comparable struct, not a formatted string, so a memo hit allocates
// nothing.
type profileKey struct {
	spec string
	seed int64
}

// profileBudget bounds the profile memo by the iterations its profiles
// hold: each iteration costs 16 bytes (cost plus prefix sum), so 1<<23
// pins at most 128 MiB. CLI sweeps resolve a handful of distinct specs,
// but a long-running daemon sees client-controlled keys, and one
// fresh-seed spec at the service's largest n holds 64 MiB. A kernel spec
// such as "mandelbrot:scale=8" is retained under its spec key as well as
// under the kernel's, so it may count twice: the memo overcounts memory,
// never undercounts it.
const profileBudget = 1 << 23

// profiles memoizes ParseSpec and the paper kernels under profileBudget.
var profiles = memo.New[profileKey](profileBudget, profileCost)

// profileCost is a profile's cost to the memo: its iteration count.
func profileCost(p *Profile) int64 { return int64(p.N()) }

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
	var params []string
	for _, k := range SpecKinds() {
		if k.Name == kind || slices.Contains(k.Aliases, kind) {
			params = k.Params
		}
	}
	if params == nil {
		return nil, fmt.Errorf("workload: unknown kind %q (constant, uniform, gaussian, exponential, gamma, bimodal, increasing, decreasing, mandelbrot, psia)", kind)
	}
	for key := range kv {
		if !slices.Contains(params, key) {
			return nil, fmt.Errorf("workload: spec %q: unknown parameter %q (valid: %s)",
				spec, key, strings.Join(params, ", "))
		}
	}

	switch kind {
	case "constant":
		return Constant(n, mean), nil
	case "uniform":
		lo, hi := get("lo", mean/2), get("hi", 1.5*mean)
		if lo <= 0 || hi <= lo {
			return nil, fmt.Errorf("workload: spec %q: need 0 < lo < hi (got lo=%g hi=%g)", spec, lo, hi)
		}
		return Uniform(n, lo, hi, seed), nil
	case "gaussian", "normal":
		sigma := get("sigma", get("cv", 0.3)*mean)
		if sigma < 0 {
			return nil, fmt.Errorf("workload: spec %q: sigma = %g, must be non-negative", spec, sigma)
		}
		return Gaussian(n, mean, sigma, seed), nil
	case "exponential", "exp":
		return Exponential(n, mean, seed), nil
	case "gamma":
		shape := get("shape", 0.5)
		if shape <= 0 {
			return nil, fmt.Errorf("workload: spec %q: shape = %g, must be positive", spec, shape)
		}
		return Gamma(n, shape, get("scale", mean/shape), seed), nil
	case "bimodal":
		lo, hi, frac := get("lo", mean/2), get("hi", 4*mean), get("frac", 0.2)
		if lo <= 0 || hi <= lo || frac < 0 || frac > 1 {
			return nil, fmt.Errorf("workload: spec %q: need 0 < lo < hi and frac in [0,1] (got lo=%g hi=%g frac=%g)",
				spec, lo, hi, frac)
		}
		return Bimodal(n, lo, hi, frac, seed), nil
	case "increasing":
		lo, hi := get("lo", mean/5), get("hi", 9*mean/5)
		if lo <= 0 || hi <= lo {
			return nil, fmt.Errorf("workload: spec %q: need 0 < lo < hi (got lo=%g hi=%g)", spec, lo, hi)
		}
		return Increasing(n, lo, hi), nil
	case "decreasing":
		lo, hi := get("lo", mean/5), get("hi", 9*mean/5)
		if lo <= 0 || hi <= lo {
			return nil, fmt.Errorf("workload: spec %q: need 0 < lo < hi (got lo=%g hi=%g)", spec, lo, hi)
		}
		return Decreasing(n, lo, hi), nil
	case "mandelbrot", "mandel":
		return MandelbrotProfile(int(get("scale", 8))), nil
	case "psia", "spinimage":
		return PSIAProfile(int(get("scale", 8))), nil
	}
	panic("workload: SpecKinds lists kind " + kind + ", which parseSpec does not build")
}
