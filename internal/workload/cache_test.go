package workload

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/memo"
)

// TestParseSpecMemoized asserts the memo returns the identical immutable
// profile for a repeated (spec, seed), and that it shares one profile
// across seeds exactly when the seed cannot change the costs: for every
// kind and alias SpecKinds lists, plus mixed-case spellings, two seeds
// get the same *Profile if and only if unmemoized parses under those seeds
// are identical. Seeded kinds stay distinct per seed.
func TestParseSpecMemoized(t *testing.T) {
	a, err := ParseSpec("gaussian:n=512,cv=0.4", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec("gaussian:n=512,cv=0.4", 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same (spec, seed) returned distinct profiles; memo missing")
	}
	if _, err := ParseSpec("nonsense:zzz=1", 1); err == nil {
		t.Error("bad spec accepted")
	}

	var specs []string
	for _, k := range SpecKinds() {
		_, params, _ := strings.Cut(k.Example, ":")
		if len(k.Params) == 1 && k.Params[0] == "scale" {
			params = "scale=256" // the paper kernels, at test size
		}
		for _, name := range append([]string{k.Name}, k.Aliases...) {
			specs = append(specs, name+":"+params)
		}
	}
	specs = append(specs, "Constant:n=300", "GAUSSIAN:n=300,cv=0.2")
	// The kinds that draw from the seed, listed apart from readsSeed.
	seeded := map[string]bool{"uniform": true, "gaussian": true, "normal": true,
		"exponential": true, "exp": true, "gamma": true, "bimodal": true}
	for _, spec := range specs {
		const s1, s2 = 101, 202
		p1, err := ParseSpec(spec, s1)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		p2, err := ParseSpec(spec, s2)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		u1, err := parseSpec(spec, s1)
		if err != nil {
			t.Fatal(err)
		}
		u2, err := parseSpec(spec, s2)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCosts(p1, u1) || !sameCosts(p2, u2) {
			t.Errorf("%s: memoized profile differs from an unmemoized parse", spec)
		}
		identical := sameCosts(u1, u2)
		shared := p1 == p2
		if shared != identical {
			t.Errorf("%s: seeds %d and %d share a profile = %v, but unmemoized costs identical = %v",
				spec, s1, s2, shared, identical)
		}
		if shared == seeded[specKind(spec)] {
			t.Errorf("%s: seeds %d and %d share a profile = %v for a kind that reads the seed = %v",
				spec, s1, s2, shared, seeded[specKind(spec)])
		}
	}
}

// sameCosts reports whether two profiles have bit-identical costs.
func sameCosts(a, b *Profile) bool {
	if a.N() != b.N() {
		return false
	}
	for i := range a.Costs() {
		if math.Float64bits(a.Cost(i)) != math.Float64bits(b.Cost(i)) {
			return false
		}
	}
	return true
}

// TestParseSpecMemoBudget swaps a small memo of the kind ParseSpec uses
// in for the process-wide one: kernel profiles count against the same
// budget as specs, a kernel spec spelling counts again under its spec key,
// the retained iterations never exceed the budget, and past it every
// profile is built per call, bit-identical to the retained one. The memo's
// own accounting under concurrent bursts is internal/memo's TestMemoBudget.
func TestParseSpecMemoBudget(t *testing.T) {
	retainedPSIA := PSIAProfile(256)
	saved := profiles
	defer func() { profiles = saved }()
	const kernelN = 1024 * (1024 / 64) // MandelbrotProfile(64)
	profiles = memo.New[profileKey](2*kernelN+kernelN/2, profileCost)

	kernel := MandelbrotProfile(64)
	if got := profiles.Used(); got != kernelN {
		t.Fatalf("after MandelbrotProfile(64): %d iterations retained, want %d", got, kernelN)
	}
	spelled, err := ParseSpec("mandelbrot:scale=64", 1)
	if err != nil {
		t.Fatal(err)
	}
	if spelled != kernel || profiles.Used() != 2*kernelN {
		t.Fatalf("kernel spec: same profile = %v, %d iterations retained; want the kernel's profile counted again (%d)",
			spelled == kernel, profiles.Used(), 2*kernelN)
	}

	// Half a kernel of budget is left: PSIAProfile(256) and a spec of
	// kernelN iterations no longer fit, a small spec still does.
	a, b := PSIAProfile(256), PSIAProfile(256)
	if a == b || a == retainedPSIA || !sameCosts(a, retainedPSIA) || !sameCosts(b, retainedPSIA) {
		t.Errorf("PSIAProfile(256) past the budget: retained = %v, bit-identical to the retained profile = %v",
			a == b, sameCosts(a, retainedPSIA) && sameCosts(b, retainedPSIA))
	}
	spec := fmt.Sprintf("constant:n=%d", kernelN)
	c, _ := ParseSpec(spec, 1)
	d, _ := ParseSpec(spec, 2)
	u, _ := parseSpec(spec, 1)
	if c == d || !sameCosts(c, u) || !sameCosts(d, u) {
		t.Errorf("%s past the budget: retained = %v, costs of an unmemoized parse = %v", spec, c == d, sameCosts(c, u) && sameCosts(d, u))
	}
	small, _ := ParseSpec("constant:n=64", 1)
	if again, _ := ParseSpec("constant:n=64", 2); again != small {
		t.Error("constant:n=64 fits the budget but was not retained")
	}
	if used := profiles.Used(); used != 2*kernelN+64 {
		t.Errorf("%d iterations retained, want %d", used, 2*kernelN+64)
	}
}

// TestProfileMemoryBounded builds the PSIA profile at scales 1–8, 11.4 M
// iterations together, through a fresh memo built as the process-wide one
// is (so the tests after it still find room): the live heap it adds must
// stay under the budget (16 bytes per iteration, 128 MiB) plus a 16 MiB
// slack. Without a bound the profiles and their candidate counts keep 24
// bytes per iteration, 261 MiB.
func TestProfileMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 11.4 M iterations of PSIA profiles")
	}
	saved := profiles
	defer func() { profiles = saved }()
	profiles = memo.New[profileKey](profileBudget, profileCost)
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	for scale := 1; scale <= 8; scale++ {
		PSIAProfile(scale)
	}
	const budgetBytes, slack = 16 * profileBudget, 16 << 20
	if added := liveHeap() - before; added > budgetBytes+slack {
		t.Errorf("building PSIA scales 1–8 added %d MiB of live heap, want at most %d MiB (budget %d MiB + %d MiB slack)",
			added>>20, (budgetBytes+slack)>>20, budgetBytes>>20, slack>>20)
	}
}

// TestParseSpecConcurrentByteIdentical resolves the same specs from many
// goroutines (run under -race in CI) and checks every result is
// byte-identical to a reference resolution.
func TestParseSpecConcurrentByteIdentical(t *testing.T) {
	specs := []string{
		"gaussian:n=256,cv=0.3", "uniform:n=256", "exponential:n=128",
		"bimodal:n=256", "mandelbrot:scale=64", "psia:scale=256",
	}
	refs := make([]*Profile, len(specs))
	for i, sp := range specs {
		p, err := ParseSpec(sp, 11)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = p
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failure string
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				for i, sp := range specs {
					p, err := ParseSpec(sp, 11)
					if err != nil || p.N() != refs[i].N() {
						mu.Lock()
						failure = sp
						mu.Unlock()
						return
					}
					for k := 0; k < p.N(); k += 17 {
						if p.Cost(k) != refs[i].Cost(k) {
							mu.Lock()
							failure = sp
							mu.Unlock()
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if failure != "" {
		t.Fatalf("%s: concurrent ParseSpec diverged from reference", failure)
	}
}

// TestKernelProfileCachesShareBackingData pins the process-wide kernel
// memo: a repeated kernel and scale returns the retained profile instead
// of recomputing the escape counts or candidate counts.
func TestKernelProfileCachesShareBackingData(t *testing.T) {
	if MandelbrotProfile(64) != MandelbrotProfile(64) {
		t.Error("MandelbrotProfile not memoized")
	}
	if PSIAProfile(256) != PSIAProfile(256) {
		t.Error("PSIAProfile not memoized")
	}
	if MandelbrotProfile(64) == MandelbrotProfile(32) {
		t.Error("distinct scales shared one profile")
	}
}
