package workload

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestParseSpecKinds(t *testing.T) {
	cases := []struct {
		spec string
		n    int
	}{
		{"constant", 4096},
		{"constant:n=100,mean=2e-6", 100},
		{"uniform:n=512", 512},
		{"gaussian:n=256,mean=50e-6,cv=0.5", 256},
		{"normal:n=256,sigma=10e-6", 256},
		{"exponential:n=128", 128},
		{"exp:n=128,mean=2e-5", 128},
		{"gamma:n=64,shape=0.7", 64},
		{"bimodal:n=300,frac=0.1", 300},
		{"increasing:n=200,lo=1e-6,hi=9e-6", 200},
		{"decreasing:n=200", 200},
	}
	for _, c := range cases {
		p, err := ParseSpec(c.spec, 1)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.spec, err)
			continue
		}
		if p.N() != c.n {
			t.Errorf("ParseSpec(%q): N = %d, want %d", c.spec, p.N(), c.n)
		}
		if p.Total() <= 0 {
			t.Errorf("ParseSpec(%q): non-positive total %v", c.spec, p.Total())
		}
	}
}

func TestParseSpecKernels(t *testing.T) {
	p, err := ParseSpec("mandelbrot:scale=64", 1)
	if err != nil {
		t.Fatal(err)
	}
	if p != MandelbrotProfile(64) {
		t.Error("mandelbrot spec did not hit the kernel profile cache")
	}
	p, err = ParseSpec("psia:scale=64", 1)
	if err != nil {
		t.Fatal(err)
	}
	if p != PSIAProfile(64) {
		t.Error("psia spec did not hit the kernel profile cache")
	}
}

func TestParseSpecDeterministicPerSeed(t *testing.T) {
	a, err := ParseSpec("gaussian:n=128,cv=0.4", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec("gaussian:n=128,cv=0.4", 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N(); i++ {
		if a.Cost(i) != b.Cost(i) {
			t.Fatalf("same seed diverged at iteration %d", i)
		}
	}
	c, err := ParseSpec("gaussian:n=128,cv=0.4", 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < a.N(); i++ {
		if a.Cost(i) != c.Cost(i) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical profiles")
	}
}

func TestParseSpecRamps(t *testing.T) {
	inc, err := ParseSpec("increasing:n=100", 1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ParseSpec("decreasing:n=100", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 100; i++ {
		if inc.Cost(i) < inc.Cost(i-1) {
			t.Fatalf("increasing ramp decreased at %d", i)
		}
		if dec.Cost(i) > dec.Cost(i-1) {
			t.Fatalf("decreasing ramp increased at %d", i)
		}
	}
	if math.Abs(inc.Cost(0)-dec.Cost(99)) > 1e-18 {
		t.Error("ramps are not mirror images at the endpoints")
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"", "unknown", "uniform:lo", "uniform:lo=abc",
		"uniform:n=0", "uniform:mean=-1", "uniform:lo=5,hi=2",
		"gaussian:shape=1", // unknown key for kind
		"constant:lo=1e-6", // unknown key for kind
		"bimodal:frac=1.5", // out of range
		"gamma:shape=-1",
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec, 1); err == nil {
			t.Errorf("ParseSpec accepted %q", spec)
		}
	}
}

// TestParseSpecParamsMatchSpecKinds checks that /v1/workloads advertises
// exactly the parameters ParseSpec accepts: for every kind and alias, a key
// SpecKinds lists never yields "unknown parameter", and any other key of
// any kind always does. n and mean are checked before the key list, so the
// values must pass those checks: n=16, scale=256 (the paper kernels at
// test size) and 1e-4 for every other key.
func TestParseSpecParamsMatchSpecKinds(t *testing.T) {
	keys := []string{"zzz"}
	for _, k := range SpecKinds() {
		for _, key := range k.Params {
			if !slices.Contains(keys, key) {
				keys = append(keys, key)
			}
		}
	}
	value := map[string]string{"n": "16", "scale": "256"}
	for _, k := range SpecKinds() {
		for _, name := range append([]string{k.Name}, k.Aliases...) {
			for _, key := range keys {
				val, ok := value[key]
				if !ok {
					val = "1e-4"
				}
				spec := name + ":" + key + "=" + val
				_, err := ParseSpec(spec, 1)
				unknown := err != nil && strings.Contains(err.Error(), "unknown parameter")
				if listed := slices.Contains(k.Params, key); unknown == listed {
					t.Errorf("ParseSpec(%q): listed in SpecKinds = %v, error = %v", spec, listed, err)
				}
			}
		}
	}
}

func TestSpecN(t *testing.T) {
	cases := []struct {
		spec string
		want int
	}{
		{"constant", 4096},
		{"gaussian:n=512,cv=0.5", 512},
		{"bimodal:n=100", 100},
		{"mandelbrot:scale=8", 1024 * 128},
		{"mandelbrot:scale=1", 1024 * 1024},
		{"psia:scale=4", 1 << 20},
	}
	for _, tc := range cases {
		got, err := SpecN(tc.spec)
		if err != nil {
			t.Errorf("SpecN(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("SpecN(%q) = %d, want %d", tc.spec, got, tc.want)
		}
		// SpecN must agree with the profile ParseSpec actually builds.
		p, err := ParseSpec(tc.spec, 1)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if p.N() != got {
			t.Errorf("SpecN(%q) = %d but ParseSpec built n = %d", tc.spec, got, p.N())
		}
	}
	for _, bad := range []string{"", "nosuchkind", "constant:n=-1", "gaussian:n=oops"} {
		if _, err := SpecN(bad); err == nil {
			t.Errorf("SpecN(%q) should fail", bad)
		}
	}
}

// referenceSpecN is SpecN as it was built on the parameter map: split the
// spec, lower-case every key, keep the last value per key, then size.
func referenceSpecN(spec string) (int, error) {
	kind := specKind(spec)
	if kind == "" {
		return 0, fmt.Errorf("workload: empty spec")
	}
	_, rest, _ := strings.Cut(strings.TrimSpace(spec), ":")
	kv := map[string]float64{}
	if rest != "" {
		for _, part := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(part, "=")
			if !ok {
				return 0, fmt.Errorf("workload: spec %q: bad parameter %q (want key=val)", spec, part)
			}
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return 0, fmt.Errorf("workload: spec %q: parameter %q: %v", spec, part, err)
			}
			kv[strings.ToLower(strings.TrimSpace(k))] = f
		}
	}
	get := func(key string, def float64) float64 {
		if v, ok := kv[key]; ok {
			return v
		}
		return def
	}
	switch kind {
	case "mandelbrot", "mandel":
		scale := int(get("scale", 8))
		if scale < 1 {
			scale = 1
		}
		return 1024 * (1024 / scale), nil
	case "psia", "spinimage":
		scale := int(get("scale", 8))
		if scale < 1 {
			scale = 1
		}
		return (1 << 22) / scale, nil
	case "constant", "uniform", "gaussian", "normal", "exponential", "exp",
		"gamma", "bimodal", "increasing", "decreasing":
		n := int(get("n", 4096))
		if n <= 0 {
			return 0, fmt.Errorf("workload: spec %q: n = %d, must be positive", spec, n)
		}
		return n, nil
	}
	return 0, fmt.Errorf("workload: unknown kind %q", kind)
}

// TestSpecNMatchesMapReference holds SpecN, which parses parameters in
// place, to the map-building reference: the same count or the same error
// text for every spec kind's example, the benchmark's specs, and specs
// that are malformed, repeat a key, change its case or spell it with
// non-ASCII letters that lower-case (or fold, but do not lower-case) to
// ASCII.
func TestSpecNMatchesMapReference(t *testing.T) {
	specs := []string{
		"constant:n=2048", "constant:n=256", "constant:n=64", "gaussian:n=1024,cv=0.3",
		"mandelbrot:scale=64", "psia:scale=64", "constant", "mandelbrot", "psia",
		"", " ", ":", ":n=3", "unknown", "unknown:n=3", "nosuchkind:n=oops",
		"constant:", "constant:,", "constant:n=5,", "constant:n", "constant:=5",
		"constant:n=", "constant:n=abc", "constant:n=0x10", "constant:n=1_000",
		"constant:n=-1", "constant:n=0", "constant:n=0.5", "constant:n=2.9",
		"constant:n=1e300", "constant:n=-1e300", "constant:n=NaN", "constant:n=inf",
		"constant:n=1e400", "constant:n=4,n=8", "constant:N=7", "CONSTANT:N=7,Mean=1",
		"  constant : n = 9 , mean = 2e-6  ", "constant:n=9;mean=1", "constant:n==9",
		"constant:mean=1,n=3,n=2", "constant:nn=3", "constant:n =3,N= 4",
		"gaussian:n=8,cv=bad", "gaussian:cv=bad,n=8", "bimodal:frac=1.5,n=10",
		"mandelbrot:scale=0", "mandelbrot:scale=-4", "mandelbrot:scale=3", "mandel:scale=2048",
		"psia:scale=5", "spinimage:SCALE=16", "psia:scale=1e30", "psia:Scale=2,scale=4",
		"mandelbrot:ſcale=2", "mandelbrot:ſcale=2,n=3", "constant:K=3,n=4",
		"constant:İ=3,n=5", "constant:ṅ=3", "constant:é=1", "psia:scale\x00=2",
		"exp:n=12", "normal:n=13", "gamma:n=14,shape=0.5", "increasing:n=15",
		"decreasing:n=16", "uniform:n=17,lo=1,hi=2",
	}
	for _, k := range SpecKinds() {
		specs = append(specs, k.Example, strings.ToUpper(k.Example), k.Name)
		for _, a := range k.Aliases {
			specs = append(specs, a+":n=33,scale=2")
		}
	}
	for _, spec := range specs {
		got, err := SpecN(spec)
		want, wantErr := referenceSpecN(spec)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Errorf("SpecN(%q) = %d, %v; reference %d, %v", spec, got, err, want, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Errorf("SpecN(%q) error %q, reference %q", spec, err, wantErr)
		case got != want:
			t.Errorf("SpecN(%q) = %d, reference %d", spec, got, want)
		}
	}
}
