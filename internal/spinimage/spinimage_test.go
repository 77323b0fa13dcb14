package spinimage

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/stats"
)

func TestVec3Basics(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, -5, 6}
	if got := a.Add(b); got != (Vec3{5, -3, 9}) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{-3, 7, -3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 4-10+18 {
		t.Fatalf("Dot = %v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Fatalf("Norm = %v", got)
	}
}

func TestSphereSampling(t *testing.T) {
	c := Sphere(1000, 0, 1)
	if c.N() != 1000 {
		t.Fatalf("N = %d", c.N())
	}
	for i, p := range c.Points {
		if r := p.Norm(); math.Abs(r-1) > 1e-9 {
			t.Fatalf("point %d radius %v, want 1 (no noise)", i, r)
		}
		if math.Abs(c.Normals[i].Norm()-1) > 1e-9 {
			t.Fatalf("normal %d not unit", i)
		}
	}
	// With noise, radii spread around 1.
	noisy := Sphere(1000, 0.1, 1)
	var lo, hi float64 = 2, 0
	for _, p := range noisy.Points {
		r := p.Norm()
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if lo > 0.96 || hi < 1.04 {
		t.Fatalf("noise did not spread radii: [%v, %v]", lo, hi)
	}
}

func TestTorusSampling(t *testing.T) {
	c := Torus(2000, 2.0, 0.5, 0, 1)
	for i, p := range c.Points {
		// Distance from the torus ring must equal the minor radius.
		ring := math.Hypot(p.X, p.Y) - 2.0
		d := math.Hypot(ring, p.Z)
		if math.Abs(d-0.5) > 1e-9 {
			t.Fatalf("point %d off torus surface by %v", i, d-0.5)
		}
		if math.Abs(c.Normals[i].Norm()-1) > 1e-9 {
			t.Fatalf("normal %d not unit", i)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams(16, 0.05)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{ImageWidth: 0, BinSize: 0.1, SupportAngle: 1},
		{ImageWidth: 8, BinSize: 0, SupportAngle: 1},
		{ImageWidth: 8, BinSize: 0.1, SupportAngle: 0},
		{ImageWidth: 8, BinSize: 0.1, SupportAngle: 4},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad[%d] accepted", i)
		}
	}
}

func TestNewGeneratorErrors(t *testing.T) {
	if _, err := NewGenerator(&Cloud{}, DefaultParams(8, 0.1)); err == nil {
		t.Fatal("empty cloud accepted")
	}
	c := Sphere(10, 0, 1)
	c.Normals = c.Normals[:5]
	if _, err := NewGenerator(c, DefaultParams(8, 0.1)); err == nil {
		t.Fatal("mismatched normals accepted")
	}
	c2 := Sphere(10, 0, 1)
	if _, err := NewGenerator(c2, Params{ImageWidth: -1, BinSize: 1, SupportAngle: 1}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestSpinImageCapturesNeighbours(t *testing.T) {
	c := Sphere(4000, 0, 7)
	p := DefaultParams(8, 0.02) // support radius 0.16
	p.SupportAngle = math.Pi    // keep all normals
	g, err := NewGenerator(c, p)
	if err != nil {
		t.Fatal(err)
	}
	img := g.Generate(100)
	if img.Width != 8 || len(img.Bins) != 64 {
		t.Fatalf("image shape %dx%d", img.Width, len(img.Bins))
	}
	if img.Sum() <= 0 {
		t.Fatal("empty spin image on a dense sphere")
	}
	// Mass must not exceed the number of candidates (bilinear weights sum ≤ 1
	// per contributor, < 1 only at the image border).
	if img.Sum() > float64(g.SupportCount(100)) {
		t.Fatalf("image mass %v exceeds candidate count %d", img.Sum(), g.SupportCount(100))
	}
	for i, b := range img.Bins {
		if b < 0 {
			t.Fatalf("negative bin %d", i)
		}
	}
}

func TestSupportAngleFilters(t *testing.T) {
	// Support radius 1.2 on a unit sphere spans ≈74° of normal deviation,
	// so a 30° support angle must drop contributors.
	c := Sphere(4000, 0, 9)
	wide := DefaultParams(8, 0.15)
	wide.SupportAngle = math.Pi
	narrow := wide
	narrow.SupportAngle = math.Pi / 6
	gw, _ := NewGenerator(c, wide)
	gn, _ := NewGenerator(c, narrow)
	wideSum, narrowSum := 0.0, 0.0
	for i := 0; i < 50; i++ {
		wideSum += gw.Generate(i).Sum()
		narrowSum += gn.Generate(i).Sum()
	}
	if narrowSum >= wideSum {
		t.Fatalf("support-angle filter did not reduce mass: %v vs %v", narrowSum, wideSum)
	}
}

func TestSphereSymmetryOfWork(t *testing.T) {
	// On a uniform sphere, per-point support counts are nearly equal — the
	// "PSIA has less load imbalance" property.
	c := Sphere(20000, 0, 11)
	counts := CandidateCounts(c.Points, 0.15)
	xs := make([]float64, len(counts))
	for i, v := range counts {
		xs[i] = float64(v)
	}
	if cov := stats.CoV(xs); cov > 0.5 {
		t.Fatalf("sphere candidate-count CoV = %.2f, want small", cov)
	}
}

func TestCandidateCountsMatchGeneratorScan(t *testing.T) {
	c := Torus(3000, 2, 0.6, 0, 5)
	radius := 0.3
	counts := CandidateCounts(c.Points, radius)
	p := Params{ImageWidth: 4, BinSize: radius / 4, SupportAngle: math.Pi}
	g, err := NewGenerator(c, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i += 211 {
		if got, want := g.SupportCount(i), counts[i]; got != want {
			t.Fatalf("point %d: generator scans %d, CandidateCounts says %d", i, got, want)
		}
	}
}

func TestCandidateCountsTorusSpread(t *testing.T) {
	// Torus sampling (constant-rate in parameter space) is denser on the
	// inner rim: moderate but nonzero spread — PSIA's workload character.
	c := Torus(50000, 2, 0.8, 0.02, 13)
	counts := CandidateCounts(c.Points, math.Sqrt(674.0/50000))
	xs := make([]float64, len(counts))
	for i, v := range counts {
		xs[i] = float64(v)
	}
	cov := stats.CoV(xs)
	if cov < 0.05 || cov > 1.0 {
		t.Fatalf("torus candidate CoV = %.3f, want moderate (0.05..1.0)", cov)
	}
}

func TestCandidateCountsEmpty(t *testing.T) {
	if CandidateCounts(nil, 1) != nil {
		t.Fatal("CandidateCounts(nil) should be nil")
	}
}

func TestImageWritePGM(t *testing.T) {
	im := Image{Width: 2, Bins: []float32{0, 1, 2, 4}}
	var buf bytes.Buffer
	if err := im.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	want := append([]byte("P5\n2 2\n255\n"), 0, 63, 127, 255)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("PGM bytes = %v, want %v", buf.Bytes(), want)
	}
	// All-zero image must not divide by zero.
	zero := Image{Width: 1, Bins: []float32{0}}
	buf.Reset()
	if err := zero.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerate(b *testing.B) {
	c := Sphere(20000, 0.01, 1)
	g, err := NewGenerator(c, DefaultParams(16, 0.01))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Generate(i % c.N())
	}
}

func BenchmarkCandidateCounts(b *testing.B) {
	c := Torus(100000, 2, 0.8, 0.02, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CandidateCounts(c.Points, 0.08)
	}
}
