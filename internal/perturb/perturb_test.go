package perturb

import (
	"math"
	"sync"
	"testing"

	"repro/internal/memo"
	"repro/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{NoiseCV: -0.1},
		{SlowdownRate: -1},
		{SlowdownRate: 1}, // missing factor/duration
		{SlowdownRate: 1, SlowdownFactor: 0.5, SlowdownDuration: 1}, // factor ≤ 1
		{SlowdownRate: 1, SlowdownFactor: 2},                        // duration ≤ 0
		{BackgroundLoad: []float64{-0.1}},
		{BackgroundLoad: []float64{1.0}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
	good := []Config{
		{},
		{NoiseCV: 0.5},
		{SlowdownRate: 3, SlowdownFactor: 2, SlowdownDuration: 0.01},
		{BackgroundLoad: []float64{0, 0.9}},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("case %d: Validate rejected %+v: %v", i, c, err)
		}
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero Config reports Enabled")
	}
	if (Config{BackgroundLoad: []float64{0, 0}}).Enabled() {
		t.Error("all-zero background load reports Enabled")
	}
	for _, c := range []Config{
		{NoiseCV: 0.1},
		{SlowdownRate: 1, SlowdownFactor: 2, SlowdownDuration: 1},
		{BackgroundLoad: []float64{0, 0.2}},
	} {
		if !c.Enabled() {
			t.Errorf("%+v not Enabled", c)
		}
	}
}

func TestNilModelIsNeutral(t *testing.T) {
	var m *Model
	if f := m.Factor(0, 0); f != 1 {
		t.Errorf("nil model Factor = %v, want 1", f)
	}
	if cv := m.NoiseCV(); cv != 0 {
		t.Errorf("nil model NoiseCV = %v, want 0", cv)
	}
}

func TestBackgroundLoadFactor(t *testing.T) {
	m := MustNew(Config{BackgroundLoad: []float64{0, 0.5}}, 4)
	for node, want := range map[int]float64{0: 1, 1: 2, 2: 1, 3: 2} { // tiled
		if got := m.Factor(node, 0); math.Abs(got-want) > 1e-12 {
			t.Errorf("node %d: Factor = %v, want %v", node, got, want)
		}
	}
}

func TestSlowdownsDeterministicPerNode(t *testing.T) {
	cfg := Config{SlowdownRate: 40, SlowdownFactor: 3, SlowdownDuration: 5e-3, Seed: 11}
	a, b := MustNew(cfg, 3), MustNew(cfg, 3)
	// Different query patterns must leave identical interval streams.
	for i := 0; i < 500; i++ {
		a.Factor(i%3, sim.Time(float64(i)*1e-3))
	}
	b.Factor(2, 0.5)
	b.Factor(0, 0.499)
	b.Factor(1, 0.1)
	for node := 0; node < 3; node++ {
		ia, ib := a.Intervals(node), b.Intervals(node)
		if len(ia) == 0 || len(ib) == 0 {
			t.Fatalf("node %d: no intervals (a=%d b=%d)", node, len(ia), len(ib))
		}
		m := len(ia)
		if len(ib) < m {
			m = len(ib)
		}
		for i := 0; i < m; i++ {
			if ia[i] != ib[i] {
				t.Fatalf("node %d interval %d: %v vs %v", node, i, ia[i], ib[i])
			}
		}
	}
	// Distinct nodes see distinct streams.
	if i0, i1 := a.Intervals(0), a.Intervals(1); len(i0) > 0 && len(i1) > 0 && i0[0] == i1[0] {
		t.Error("nodes 0 and 1 drew identical first intervals; per-node seeds not decorrelated")
	}
}

// TestSlowdownStreamsBounded swaps in a two-entry stream memo, built as the
// process-wide one is, and queries eight four-node models from concurrent
// goroutines (run under -race in CI): the memo holds at most two streams,
// so at most two nodes share one stream across every model and the rest
// get private streams, and every node's windows equal those of a model
// whose streams are all retained.
func TestSlowdownStreamsBounded(t *testing.T) {
	cfg := Config{SlowdownRate: 40, SlowdownFactor: 3, SlowdownDuration: 5e-3, Seed: 29}
	const nodes, horizon = 4, 1.0
	ref := MustNew(cfg, nodes)
	for node := 0; node < nodes; node++ {
		ref.Factor(node, horizon)
	}
	saved := streamCache
	defer func() { streamCache = saved }()
	streamCache = memo.New[streamKey](2, func(*sharedStream) int64 { return 1 })

	models := make([]*Model, 8)
	var wg sync.WaitGroup
	for g := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := MustNew(cfg, nodes)
			for i := 0; i < 200; i++ {
				m.Factor((g+i)%nodes, sim.Time(float64(i)*horizon/200))
			}
			models[g] = m
		}()
	}
	wg.Wait()
	if used := streamCache.Used(); used > 2 {
		t.Errorf("stream memo holds %d streams, bound 2", used)
	}
	shared := 0
	for node := 0; node < nodes; node++ {
		same := true
		for _, m := range models {
			same = same && m.streams[node] == models[0].streams[node]
			got, want := m.Intervals(node), ref.Intervals(node)
			if len(got) == 0 || len(got) > len(want) {
				t.Fatalf("node %d: %d windows, reference %d", node, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("node %d window %d: %v, reference %v", node, i, got[i], want[i])
				}
			}
		}
		if same {
			shared++
		}
	}
	if shared > 2 {
		t.Errorf("%d nodes share one stream across every model, bound 2", shared)
	}
}

func TestSlowdownFactorInsideInterval(t *testing.T) {
	cfg := Config{SlowdownRate: 100, SlowdownFactor: 2.5, SlowdownDuration: 1e-2, Seed: 3}
	m := MustNew(cfg, 1)
	m.Factor(0, 1.0) // force generation up to t=1
	ivs := m.Intervals(0)
	if len(ivs) == 0 {
		t.Fatal("no intervals generated in 1 virtual second at rate 100")
	}
	iv := ivs[0]
	mid := (iv[0] + iv[1]) / 2
	if got := m.Factor(0, mid); got != 2.5 {
		t.Errorf("Factor inside slowdown = %v, want 2.5", got)
	}
	if iv[0] > 0 {
		if got := m.Factor(0, iv[0]/2); got != 1 {
			t.Errorf("Factor before first slowdown = %v, want 1", got)
		}
	}
	if got := m.Factor(0, iv[1]); got != 1 && len(ivs) > 1 && iv[1] < ivs[1][0] {
		t.Errorf("Factor at interval end = %v, want 1 (interval is half-open)", got)
	}
}

// TestActiveFraction sanity-checks the long-run duty cycle against the
// analytic rate·duration / (1 + rate·duration) for non-overlapping
// exponential on/off processes.
func TestActiveFraction(t *testing.T) {
	rate, dur := 20.0, 0.01
	m := MustNew(Config{SlowdownRate: rate, SlowdownFactor: 2, SlowdownDuration: sim.Time(dur), Seed: 1}, 1)
	horizon := 2000.0
	m.Factor(0, sim.Time(horizon))
	var active float64
	for _, iv := range m.Intervals(0) {
		hi := math.Min(float64(iv[1]), horizon)
		if lo := float64(iv[0]); lo < hi {
			active += hi - lo
		}
	}
	got := active / horizon
	want := rate * dur / (1 + rate*dur)
	if math.Abs(got-want) > 0.05 {
		t.Errorf("active fraction %.3f, want ≈ %.3f", got, want)
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	if _, err := New(Config{NoiseCV: -1}, 2); err == nil {
		t.Error("New accepted invalid config")
	}
	if _, err := New(Config{}, 0); err == nil {
		t.Error("New accepted zero nodes")
	}
}

func TestConfigString(t *testing.T) {
	if s := (Config{}).String(); s != "none" {
		t.Errorf("zero Config String = %q", s)
	}
	c := Config{NoiseCV: 0.2, SlowdownRate: 5, SlowdownFactor: 2, SlowdownDuration: 0.01,
		BackgroundLoad: []float64{0, 0.3}}
	s := c.String()
	for _, want := range []string{"noise", "slowdowns", "bg load"} {
		if !containsStr(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
