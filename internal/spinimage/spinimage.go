// Package spinimage implements spin-image generation (Johnson, 1997), the
// kernel of PSIA — the paper's second application. A spin image is a 2D
// histogram accumulated around an oriented point p with normal n: every
// neighbouring point x within the support region contributes to the bin at
//
//	α = √(‖x−p‖² − (n·(x−p))²)   (radial distance)
//	β = n·(x−p)                   (signed axial distance)
//
// One loop iteration of PSIA generates the spin image of one oriented
// point; its cost is proportional to the number of points inside the
// support region. On a surface sampled roughly uniformly, that count varies
// only moderately between points — which is why PSIA exhibits far less load
// imbalance than Mandelbrot, the property the paper's §5 leans on.
package spinimage

import (
	"fmt"
	"io"
	"math"
	"math/rand"
)

// Vec3 is a 3D vector.
type Vec3 struct{ X, Y, Z float64 }

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a − b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Dot returns the dot product.
func (a Vec3) Dot(b Vec3) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Scale returns s·a.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{s * a.X, s * a.Y, s * a.Z} }

// Norm returns ‖a‖.
func (a Vec3) Norm() float64 { return math.Sqrt(a.Dot(a)) }

// Cloud is an oriented point cloud: surface samples with unit normals.
type Cloud struct {
	Points  []Vec3
	Normals []Vec3
}

// N reports the number of oriented points.
func (c *Cloud) N() int { return len(c.Points) }

// Sphere samples n points on a unit sphere with the given surface noise
// amplitude; normals point radially.
func Sphere(n int, noise float64, seed int64) *Cloud {
	rng := rand.New(rand.NewSource(seed))
	c := &Cloud{Points: make([]Vec3, n), Normals: make([]Vec3, n)}
	for i := 0; i < n; i++ {
		// Fibonacci-style lattice keeps sampling near-uniform and, like a
		// real scanned mesh, spatially coherent in index order.
		z := 1 - 2*(float64(i)+0.5)/float64(n)
		r := math.Sqrt(1 - z*z)
		phi := math.Pi * (1 + math.Sqrt(5)) * float64(i)
		dir := Vec3{r * math.Cos(phi), r * math.Sin(phi), z}
		rad := 1 + noise*(rng.Float64()-0.5)
		c.Points[i] = dir.Scale(rad)
		c.Normals[i] = dir
	}
	return c
}

// Torus samples n points on a torus with major radius R and minor radius r.
// The non-uniform curvature yields a wider neighbour-count spread than the
// sphere, useful for imbalance experiments.
func Torus(n int, R, r float64, noise float64, seed int64) *Cloud {
	rng := rand.New(rand.NewSource(seed))
	c := &Cloud{Points: make([]Vec3, n), Normals: make([]Vec3, n)}
	golden := math.Pi * (1 + math.Sqrt(5))
	for i := 0; i < n; i++ {
		u := 2 * math.Pi * (float64(i) + 0.5) / float64(n) * math.Sqrt(float64(n))
		v := golden * float64(i)
		cu, su := math.Cos(u), math.Sin(u)
		cv, sv := math.Cos(v), math.Sin(v)
		rr := r * (1 + noise*(rng.Float64()-0.5))
		c.Points[i] = Vec3{(R + rr*cv) * cu, (R + rr*cv) * su, rr * sv}
		c.Normals[i] = Vec3{cv * cu, cv * su, sv}
	}
	return c
}

// Params configures spin-image generation.
type Params struct {
	// ImageWidth is the number of bins per image axis (images are square).
	ImageWidth int
	// BinSize is the world-space width of one bin.
	BinSize float64
	// SupportAngle, in radians, discards contributors whose normals deviate
	// from the oriented point's normal by more than this angle (Johnson's
	// support-angle filter). Pi disables the filter.
	SupportAngle float64
}

// DefaultParams returns Johnson-style parameters sized to the cloud: the
// support radius (ImageWidth × BinSize) covers a moderate neighbourhood.
func DefaultParams(imageWidth int, binSize float64) Params {
	return Params{ImageWidth: imageWidth, BinSize: binSize, SupportAngle: math.Pi / 3}
}

// Validate checks the parameters.
func (p *Params) Validate() error {
	if p.ImageWidth <= 0 {
		return fmt.Errorf("spinimage: ImageWidth = %d must be positive", p.ImageWidth)
	}
	if p.BinSize <= 0 {
		return fmt.Errorf("spinimage: BinSize = %g must be positive", p.BinSize)
	}
	if p.SupportAngle <= 0 || p.SupportAngle > math.Pi {
		return fmt.Errorf("spinimage: SupportAngle = %g out of (0, π]", p.SupportAngle)
	}
	return nil
}

// SupportRadius is the world-space radius of the support cylinder.
func (p *Params) SupportRadius() float64 { return float64(p.ImageWidth) * p.BinSize }

// Image is one spin image: a row-major ImageWidth×ImageWidth bin grid.
type Image struct {
	Width int
	Bins  []float32
}

// Generator builds spin images over a cloud using a uniform spatial grid
// for neighbour lookup, which is what makes generating hundreds of
// thousands of images tractable.
type Generator struct {
	cloud  *Cloud
	params Params
	grid   *grid
}

// NewGenerator indexes the cloud.
func NewGenerator(c *Cloud, p Params) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if c.N() == 0 {
		return nil, fmt.Errorf("spinimage: empty cloud")
	}
	if len(c.Points) != len(c.Normals) {
		return nil, fmt.Errorf("spinimage: %d points vs %d normals", len(c.Points), len(c.Normals))
	}
	return &Generator{cloud: c, params: p, grid: buildGrid(c.Points, p.SupportRadius())}, nil
}

// Params returns the generator's parameters.
func (g *Generator) Params() Params { return g.params }

// Cloud returns the indexed cloud.
func (g *Generator) Cloud() *Cloud { return g.cloud }

// Generate computes the spin image of oriented point i — the body of one
// PSIA loop iteration.
func (g *Generator) Generate(i int) Image {
	p := g.params
	w := p.ImageWidth
	img := Image{Width: w, Bins: make([]float32, w*w)}
	base := g.cloud.Points[i]
	n := g.cloud.Normals[i]
	cosSupport := math.Cos(p.SupportAngle)
	radius := p.SupportRadius()
	halfHeight := radius / 2

	g.grid.visit(base, radius, func(j int) {
		x := g.cloud.Points[j]
		if g.cloud.Normals[j].Dot(n) < cosSupport {
			return
		}
		d := x.Sub(base)
		beta := n.Dot(d)
		if beta < -halfHeight || beta >= halfHeight {
			return
		}
		alpha2 := d.Dot(d) - beta*beta
		if alpha2 < 0 {
			alpha2 = 0
		}
		alpha := math.Sqrt(alpha2)
		if alpha >= radius {
			return
		}
		// Bilinear binning as in Johnson's thesis.
		fa := alpha / p.BinSize
		fb := (halfHeight - beta) / p.BinSize
		ia, ib := int(fa), int(fb)
		da, db := float32(fa-float64(ia)), float32(fb-float64(ib))
		deposit := func(bx, by int, wgt float32) {
			if bx >= 0 && bx < w && by >= 0 && by < w {
				img.Bins[by*w+bx] += wgt
			}
		}
		deposit(ia, ib, (1-da)*(1-db))
		deposit(ia+1, ib, da*(1-db))
		deposit(ia, ib+1, (1-da)*db)
		deposit(ia+1, ib+1, da*db)
	})
	return img
}

// SupportCount returns the number of points the support region of point i
// examines; this is the per-iteration work driver used to build the PSIA
// cost profile without materializing two million images.
func (g *Generator) SupportCount(i int) int {
	base := g.cloud.Points[i]
	radius := g.params.SupportRadius()
	count := 0
	g.grid.visit(base, radius, func(int) { count++ })
	return count
}

// Sum returns the total mass of an image.
func (im Image) Sum() float64 {
	var s float64
	for _, b := range im.Bins {
		s += float64(b)
	}
	return s
}

// WritePGM renders the image to a binary PGM, normalized to its peak bin.
func (im Image) WritePGM(w io.Writer) error {
	peak := float32(0)
	for _, b := range im.Bins {
		if b > peak {
			peak = b
		}
	}
	px := make([]uint8, len(im.Bins))
	for i, b := range im.Bins {
		if peak > 0 {
			px[i] = uint8(255 * b / peak)
		}
	}
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", im.Width, im.Width); err != nil {
		return err
	}
	_, err := w.Write(px)
	return err
}

// CandidateCounts returns, for every point, the number of candidate points
// a grid-accelerated implementation scans when generating that point's spin
// image: the population of the 27-cell neighbourhood at cell size = support
// radius. This is the honest per-iteration work measure (the inner loop of
// PSIA runs once per candidate) and is computable in O(N) without building
// per-cell point lists, which keeps multi-million-point cost profiles cheap.
func CandidateCounts(points []Vec3, radius float64) []int {
	if len(points) == 0 {
		return nil
	}
	min, max := points[0], points[0]
	for _, p := range points[1:] {
		min.X = math.Min(min.X, p.X)
		min.Y = math.Min(min.Y, p.Y)
		min.Z = math.Min(min.Z, p.Z)
		max.X = math.Max(max.X, p.X)
		max.Y = math.Max(max.Y, p.Y)
		max.Z = math.Max(max.Z, p.Z)
	}
	nx := int((max.X-min.X)/radius) + 1
	ny := int((max.Y-min.Y)/radius) + 1
	nz := int((max.Z-min.Z)/radius) + 1
	counts := make([]int32, nx*ny*nz)
	coord := func(p Vec3) (int, int, int) {
		return clamp(int((p.X-min.X)/radius), nx),
			clamp(int((p.Y-min.Y)/radius), ny),
			clamp(int((p.Z-min.Z)/radius), nz)
	}
	for _, p := range points {
		cx, cy, cz := coord(p)
		counts[(cz*ny+cy)*nx+cx]++
	}
	out := make([]int, len(points))
	for i, p := range points {
		cx, cy, cz := coord(p)
		total := 0
		for z := cz - 1; z <= cz+1; z++ {
			if z < 0 || z >= nz {
				continue
			}
			for y := cy - 1; y <= cy+1; y++ {
				if y < 0 || y >= ny {
					continue
				}
				row := (z*ny + y) * nx
				for x := cx - 1; x <= cx+1; x++ {
					if x < 0 || x >= nx {
						continue
					}
					total += int(counts[row+x])
				}
			}
		}
		out[i] = total
	}
	return out
}

// grid is a uniform spatial hash over the cloud's bounding box.
type grid struct {
	min        Vec3
	cell       float64
	nx, ny, nz int
	cells      [][]int32
}

func buildGrid(points []Vec3, cell float64) *grid {
	g := &grid{cell: cell}
	min, max := points[0], points[0]
	for _, p := range points[1:] {
		min.X = math.Min(min.X, p.X)
		min.Y = math.Min(min.Y, p.Y)
		min.Z = math.Min(min.Z, p.Z)
		max.X = math.Max(max.X, p.X)
		max.Y = math.Max(max.Y, p.Y)
		max.Z = math.Max(max.Z, p.Z)
	}
	g.min = min
	g.nx = int((max.X-min.X)/cell) + 1
	g.ny = int((max.Y-min.Y)/cell) + 1
	g.nz = int((max.Z-min.Z)/cell) + 1
	g.cells = make([][]int32, g.nx*g.ny*g.nz)
	for i, p := range points {
		idx := g.index(p)
		g.cells[idx] = append(g.cells[idx], int32(i))
	}
	return g
}

func (g *grid) coord(p Vec3) (int, int, int) {
	cx := int((p.X - g.min.X) / g.cell)
	cy := int((p.Y - g.min.Y) / g.cell)
	cz := int((p.Z - g.min.Z) / g.cell)
	return clamp(cx, g.nx), clamp(cy, g.ny), clamp(cz, g.nz)
}

func clamp(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

func (g *grid) index(p Vec3) int {
	cx, cy, cz := g.coord(p)
	return (cz*g.ny+cy)*g.nx + cx
}

// visit calls fn for every point whose cell intersects the cube of the
// given radius around center. Candidates, not exact sphere membership —
// exactly the set a real implementation would scan.
func (g *grid) visit(center Vec3, radius float64, fn func(i int)) {
	r := int(math.Ceil(radius / g.cell))
	cx, cy, cz := g.coord(center)
	for z := cz - r; z <= cz+r; z++ {
		if z < 0 || z >= g.nz {
			continue
		}
		for y := cy - r; y <= cy+r; y++ {
			if y < 0 || y >= g.ny {
				continue
			}
			row := (z*g.ny + y) * g.nx
			for x := cx - r; x <= cx+r; x++ {
				if x < 0 || x >= g.nx {
					continue
				}
				for _, i := range g.cells[row+x] {
					fn(int(i))
				}
			}
		}
	}
}
