package workload

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
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

// TestParseSpecMemoBudget bursts fresh-seed specs, together far past the
// budget, from concurrent goroutines through a small memo of the type
// ParseSpec uses: the retained iteration total never exceeds the budget,
// specs past it are still served, unretained, and every profile has the
// costs of an unmemoized parse. A second burst resolves the same specs
// from every goroutine at once: claims that lose the store to another
// goroutine must be given back.
func TestParseSpecMemoBudget(t *testing.T) {
	const n, seeds = 4096, 16
	spec := fmt.Sprintf("uniform:n=%d", n)
	got := make([]*Profile, seeds)
	burst := func(m *specMemo, shared bool) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seed := 0; seed < seeds; seed++ {
					if !shared && seed%4 != g {
						continue
					}
					p, err := m.parse(spec, int64(seed))
					if err != nil {
						t.Error(err)
						return
					}
					if !shared {
						got[seed] = p
					}
				}
			}()
		}
		wg.Wait()
	}
	retained := func(m *specMemo) (entries int, iters int64) {
		m.profiles.Range(func(_, v any) bool {
			entries++
			iters += int64(v.(*Profile).N())
			return true
		})
		return entries, iters
	}

	m := &specMemo{budget: 5*n + n/2}
	burst(m, false)
	entries, iters := retained(m)
	if iters > m.budget || iters != m.iters.Load() {
		t.Fatalf("memo retains %d iterations (counter %d), budget %d", iters, m.iters.Load(), m.budget)
	}
	if entries != 5 {
		t.Errorf("memo retained %d profiles, want the 5 that fit the budget", entries)
	}
	for seed, p := range got {
		u, err := parseSpec(spec, int64(seed))
		if err != nil {
			t.Fatal(err)
		}
		if p == nil || !sameCosts(p, u) {
			t.Fatalf("seed %d: memo served costs that differ from an unmemoized parse", seed)
		}
		again, _ := m.parse(spec, int64(seed))
		_, kept := m.profiles.Load(specKey{spec: spec, seed: int64(seed)})
		if (again == p) != kept {
			t.Errorf("seed %d: repeat returned the same profile = %v, retained = %v", seed, again == p, kept)
		}
	}

	m = &specMemo{budget: 1 << 20}
	burst(m, true)
	if entries, iters := retained(m); entries != seeds || iters != m.iters.Load() {
		t.Errorf("after a shared burst: %d profiles of %d iterations retained, counter %d", entries, iters, m.iters.Load())
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
// memos: repeated profile construction must not recompute the escape
// counts / candidate counts.
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
