package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestStdDevAndCoV(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Fatal("StdDev of singleton != 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := StdDev(xs); math.Abs(got-2) > 1e-12 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if got := CoV(xs); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("CoV = %v, want 0.4", got)
	}
	if CoV([]float64{0, 0}) != 0 {
		t.Fatal("CoV of zero-mean input should be 0")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Fatalf("MinMax = (%v, %v), want (-1, 7)", min, max)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MinMax(empty) did not panic")
		}
	}()
	MinMax(nil)
}

func TestLoadImbalance(t *testing.T) {
	if got := LoadImbalance([]float64{1, 1, 1, 1}); got != 0 {
		t.Fatalf("balanced imbalance = %v, want 0", got)
	}
	if got := LoadImbalance([]float64{1, 1, 2}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("imbalance = %v, want 0.5", got)
	}
	if LoadImbalance(nil) != 0 || LoadImbalance([]float64{0, 0}) != 0 {
		t.Fatal("degenerate inputs should give 0")
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{2.5, "2.50 s"},
		{0.0025, "2.50 ms"},
		{2.5e-6, "2.50 µs"},
		{3e-9, "3 ns"},
	}
	for _, c := range cases {
		if got := FormatSeconds(c.in); got != c.want {
			t.Fatalf("FormatSeconds(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	if !strings.Contains(FormatSeconds(61), "s") {
		t.Fatal("seconds must carry a unit")
	}
}

// Property: imbalance is non-negative.
func TestQuickHistogramConservation(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				// Bound magnitudes so sums cannot overflow; astronomically
				// scaled inputs are not a supported regime.
				xs = append(xs, math.Mod(x, 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		pos := make([]float64, len(xs))
		for i, x := range xs {
			pos[i] = math.Abs(x) + 1
		}
		return LoadImbalance(pos) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
