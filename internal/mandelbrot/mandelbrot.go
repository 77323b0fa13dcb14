// Package mandelbrot implements the escape-time computation of the
// Mandelbrot set, the first of the paper's two applications. Each loop
// iteration computes one pixel; the escape-iteration count varies by orders
// of magnitude across the image, which is exactly the algorithmic load
// imbalance the paper exploits ("high algorithmic load imbalance that
// motivated its use as a kernel for DLS performance evaluation").
//
// Two recurrences are provided: the standard z ← z² + c and the logistic
// variant z ← λz(1−z) from the paper's citation (Mandelbrot, 1980). The
// kernel is the real computation — escape counts are not synthesized — and
// also renders images for the example programs.
package mandelbrot

import (
	"fmt"
	"io"
	"math"
)

// Variant selects the iterated map.
type Variant int

const (
	// Standard iterates z ← z² + c over the pixel's point c.
	Standard Variant = iota
	// Logistic iterates z ← λz(1−z) with λ the pixel's point and z₀ = 0.5,
	// the form cited by the paper [34].
	Logistic
)

// Params describes one Mandelbrot computation.
type Params struct {
	Width, Height          int
	XMin, XMax, YMin, YMax float64
	MaxIter                int
	Variant                Variant
}

// Default returns the grid used by the experiment harness: a window around
// the set that is vertically near-symmetric — equal halves of rows carry
// almost the same total work (as in the paper, where GSS's first N/2 chunk
// runs close to ideal), but the tiny offset keeps slabs from being exactly
// equal. Within a slab, row costs still differ by an order of magnitude,
// which is the intra-node imbalance the schedulers fight over.
func Default(width, height int) Params {
	return Params{
		Width: width, Height: height,
		XMin: -2.2, XMax: 0.8,
		YMin: -1.26, YMax: 1.24,
		MaxIter: 2000,
		Variant: Standard,
	}
}

// Validate checks the parameters.
func (p *Params) Validate() error {
	if p.Width <= 0 || p.Height <= 0 {
		return fmt.Errorf("mandelbrot: grid %dx%d must be positive", p.Width, p.Height)
	}
	if p.MaxIter <= 0 {
		return fmt.Errorf("mandelbrot: MaxIter = %d must be positive", p.MaxIter)
	}
	if p.XMax <= p.XMin || p.YMax <= p.YMin {
		return fmt.Errorf("mandelbrot: empty region [%g,%g]x[%g,%g]", p.XMin, p.XMax, p.YMin, p.YMax)
	}
	return nil
}

// N reports the loop size (number of pixels).
func (p *Params) N() int { return p.Width * p.Height }

// Point maps pixel (px, py) to its complex coordinate.
func (p *Params) Point(px, py int) complex128 {
	x := p.XMin + (p.XMax-p.XMin)*(float64(px)+0.5)/float64(p.Width)
	y := p.YMin + (p.YMax-p.YMin)*(float64(py)+0.5)/float64(p.Height)
	return complex(x, y)
}

// EscapeXY runs the escape-time loop for pixel (px, py) and returns the
// iteration count at which |z| exceeded 2, or MaxIter if it never did
// (the point is taken to be in the set).
func (p *Params) EscapeXY(px, py int) int {
	c := p.Point(px, py)
	switch p.Variant {
	case Logistic:
		z := complex(0.5, 0)
		for i := 0; i < p.MaxIter; i++ {
			z = c * z * (1 - z)
			if real(z)*real(z)+imag(z)*imag(z) > 4 {
				return i + 1
			}
		}
		return p.MaxIter
	default:
		var zr, zi float64
		cr, ci := real(c), imag(c)
		for i := 0; i < p.MaxIter; i++ {
			zr2, zi2 := zr*zr, zi*zi
			if zr2+zi2 > 4 {
				return i + 1
			}
			zr, zi = zr2-zi2+cr, 2*zr*zi+ci
		}
		return p.MaxIter
	}
}

// Escape computes the escape count of loop iteration i in row-major order,
// the iteration space the schedulers partition.
func (p *Params) Escape(i int) int {
	return p.EscapeXY(i%p.Width, i/p.Width)
}

// EscapeCounts computes the whole grid; this is the real kernel the
// workload cost profile is derived from.
func (p *Params) EscapeCounts() []int {
	out := make([]int, p.N())
	for i := range out {
		out[i] = p.Escape(i)
	}
	return out
}

// Render produces an 8-bit grayscale image (log-scaled escape counts,
// in-set points black), row-major.
func (p *Params) Render(counts []int) []uint8 {
	img := make([]uint8, len(counts))
	for i, c := range counts {
		if c >= p.MaxIter {
			img[i] = 0
			continue
		}
		// log scale for visual contrast
		v := 255.0 * math.Log2(float64(c)+1) / math.Log2(float64(p.MaxIter))
		if v > 255 {
			v = 255
		}
		img[i] = uint8(255 - v)
	}
	return img
}

// WritePGM writes a binary PGM (P5) image.
func WritePGM(w io.Writer, width, height int, pixels []uint8) error {
	if len(pixels) != width*height {
		return fmt.Errorf("mandelbrot: %d pixels for %dx%d image", len(pixels), width, height)
	}
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", width, height); err != nil {
		return err
	}
	_, err := w.Write(pixels)
	return err
}
