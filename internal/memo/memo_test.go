package memo

import (
	"errors"
	"math"
	"sync"
	"testing"
)

// key is a struct key like the memo's users have: a hit must not box it.
type key struct {
	spec string
	seed int64
}

// profile stands in for a memoized value whose cost is its length.
type profile struct{ costs []float64 }

func iterations(p *profile) int64 { return int64(len(p.costs)) }

// build is the unmemoized construction: a pure function of the key.
func build(k key, n int) *profile {
	p := &profile{costs: make([]float64, n)}
	for i := range p.costs {
		p.costs[i] = float64(k.seed) + math.Sqrt(float64(i))
	}
	return p
}

func sameCosts(a, b *profile) bool {
	if len(a.costs) != len(b.costs) {
		return false
	}
	for i := range a.costs {
		if math.Float64bits(a.costs[i]) != math.Float64bits(b.costs[i]) {
			return false
		}
	}
	return true
}

// retained sums what m holds by walking it, apart from its counter.
func retained(m *Memo[key, *profile]) (entries int, cost int64) {
	m.values.Range(func(_, v any) bool {
		entries++
		cost += iterations(v.(*profile))
		return true
	})
	return entries, cost
}

// TestMemoBudget bursts fresh keys, together far past the budget, from
// concurrent goroutines through a small memo: the retained cost never
// exceeds the budget, keys past it are still served, unretained, and every
// value equals an unmemoized build. A repeat returns the same value
// exactly when that value was retained. A second burst resolves the same
// keys from every goroutine at once: claims that lose the store to another
// goroutine must be given back.
func TestMemoBudget(t *testing.T) {
	const n, seeds = 4096, 16
	got := make([]*profile, seeds)
	burst := func(m *Memo[key, *profile], shared bool) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seed := 0; seed < seeds; seed++ {
					if !shared && seed%4 != g {
						continue
					}
					k := key{spec: "uniform", seed: int64(seed)}
					p, err := m.Get(k, func() (*profile, error) { return build(k, n), nil })
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

	m := New[key](5*n+n/2, iterations)
	burst(m, false)
	entries, cost := retained(m)
	if cost > m.budget || cost != m.Used() {
		t.Fatalf("memo retains cost %d (counter %d), budget %d", cost, m.Used(), m.budget)
	}
	if entries != 5 {
		t.Errorf("memo retained %d values, want the 5 that fit the budget", entries)
	}
	for seed, p := range got {
		k := key{spec: "uniform", seed: int64(seed)}
		if p == nil || !sameCosts(p, build(k, n)) {
			t.Fatalf("seed %d: memo served costs that differ from an unmemoized build", seed)
		}
		again, _ := m.Get(k, func() (*profile, error) { return build(k, n), nil })
		_, kept := m.values.Load(k)
		if (again == p) != kept {
			t.Errorf("seed %d: repeat returned the same value = %v, retained = %v", seed, again == p, kept)
		}
	}

	m = New[key](1<<20, iterations)
	burst(m, true)
	if entries, cost := retained(m); entries != seeds || cost != m.Used() {
		t.Errorf("after a shared burst: %d values of cost %d retained, counter %d", entries, cost, m.Used())
	}
}

// TestMemoErrorNotRetained checks that a failed build is returned as is and
// claims nothing: the next Get builds again.
func TestMemoErrorNotRetained(t *testing.T) {
	m := New[key](1<<20, iterations)
	k := key{spec: "bad"}
	fail := errors.New("bad spec")
	builds := 0
	for i := 0; i < 2; i++ {
		if _, err := m.Get(k, func() (*profile, error) { builds++; return nil, fail }); err != fail {
			t.Fatalf("Get = %v, want the build's error", err)
		}
	}
	if builds != 2 || m.Used() != 0 {
		t.Errorf("after two failed builds: %d builds, %d cost claimed; want 2 builds and 0", builds, m.Used())
	}
}

// TestMemoHitAllocs pins a hit at zero allocations: the key reaches the
// map's lookup typed, not boxed once for both the lookup and the store.
func TestMemoHitAllocs(t *testing.T) {
	m := New[key](1<<20, iterations)
	k := key{spec: "constant:n=64"}
	get := func() (*profile, error) { return build(k, 64), nil }
	want, _ := m.Get(k, get)
	if allocs := testing.AllocsPerRun(100, func() {
		if p, _ := m.Get(k, get); p != want {
			t.Fatal("hit returned a different value")
		}
	}); allocs != 0 {
		t.Errorf("memo hit: %v allocations, want 0", allocs)
	}
}
