// Package spline implements the curve-fitting primitives used by the
// model-based partitioning scheme (Sec. VI-B of the paper). The paper
// fits each thread's CPI-vs-ways data points with "a simple cubic spline
// interpolation" and notes that the choice of fitting algorithm is
// independent of the scheme; this package provides two interpolants
// behind one interface:
//
//   - Natural cubic spline (the paper's choice, and the engine's)
//   - Piecewise linear — the trivially robust fallback
//
// All interpolants clamp extrapolation to the boundary values: CPI
// predictions outside the observed way range are held at the nearest
// observed point, which keeps the partitioning iteration from chasing
// fictitious improvements beyond its data.
package spline

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Interpolator predicts y for any x, fitted from sample points.
type Interpolator interface {
	// Eval returns the interpolated value at x. Outside the fitted
	// x-range, Eval returns the boundary value (clamped extrapolation).
	Eval(x float64) float64
	// Knots returns the fitted x coordinates in ascending order.
	Knots() []float64
}

// Kind selects an interpolation algorithm.
type Kind int

const (
	// NaturalCubic is the classic natural cubic spline (second
	// derivative zero at both ends). The paper's choice.
	NaturalCubic Kind = iota
	// Linear is piecewise-linear interpolation.
	Linear
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case NaturalCubic:
		return "natural-cubic"
	case Linear:
		return "linear"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

var errTooFew = errors.New("spline: need at least one data point")

// Fit builds an interpolator of the given kind, which must be one of
// the two above, over the points (xs[i], ys[i]). The slices must
// have equal nonzero length and every coordinate must be finite: a
// single NaN or Inf would contaminate the whole tridiagonal solve and
// make Eval return NaN everywhere, so such inputs are rejected up
// front. Duplicate x values are collapsed by averaging their y values;
// points need not be pre-sorted. With a single distinct point the
// result is a constant function; with two, all kinds degenerate to
// linear interpolation.
func Fit(kind Kind, xs, ys []float64) (Interpolator, error) {
	return new(Fitter).Fit(kind, xs, ys)
}

// Fitter fits interpolants into storage it owns and reuses from one
// fit to the next, so a caller that fits repeatedly allocates only
// while the buffers grow. The Interpolator a fit returns aliases that
// storage and stays valid until the Fitter's next Fit. The zero value
// is ready to use; a Fitter must not be used concurrently.
type Fitter struct {
	x, y, m []float64 // knots, values and Hermite slopes of the fit
	h, w    []float64 // knot spacings and second derivatives
	b, d    []float64 // diagonal and right-hand side of the natural spline's system
	pts     []point   // sort buffer for unsorted or duplicate input

	con constant
	lin linear
	cub cubic
}

type point struct{ x, y float64 }

// Fit is the package-level Fit, fitted into f's storage.
func (f *Fitter) Fit(kind Kind, xs, ys []float64) (Interpolator, error) {
	if kind < NaturalCubic || kind > Linear {
		return nil, fmt.Errorf("spline: unknown kind %v", kind)
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("spline: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return nil, errTooFew
	}
	ascending := true
	for i := range xs {
		if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
			return nil, fmt.Errorf("spline: non-finite x at index %d: %v", i, xs[i])
		}
		if math.IsNaN(ys[i]) || math.IsInf(ys[i], 0) {
			return nil, fmt.Errorf("spline: non-finite y at index %d: %v", i, ys[i])
		}
		if i > 0 && xs[i] <= xs[i-1] {
			ascending = false
		}
	}
	if ascending {
		f.x = append(f.x[:0], xs...)
		f.y = grow(f.y, len(ys))
		for i, y := range ys {
			f.y[i] = 0 + y // what averaging a lone point yields: -0 becomes +0
		}
	} else {
		f.dedupSorted(xs, ys)
	}
	x, y := f.x, f.y
	switch {
	case len(x) == 1:
		f.con = constant(y[0])
		return &f.con, nil
	case len(x) == 2 || kind == Linear:
		f.lin = linear{x: x, y: y}
		return &f.lin, nil
	default:
		f.fitNatural()
	}
	f.cub = cubic{x: x, y: y, m: f.m}
	return &f.cub, nil
}

// grow returns buf resized to n, reallocating only when it is too
// small. The contents are unspecified.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// dedupSorted sorts the points by x into f.x and f.y, averaging y
// across duplicate xs.
func (f *Fitter) dedupSorted(xs, ys []float64) {
	pts := f.pts[:0]
	for i := range xs {
		pts = append(pts, point{xs[i], ys[i]})
	}
	f.pts = pts
	slices.SortFunc(pts, func(a, b point) int { return cmp.Compare(a.x, b.x) })
	f.x, f.y = f.x[:0], f.y[:0]
	for i := 0; i < len(pts); {
		j := i
		var sum float64
		for j < len(pts) && pts[j].x == pts[i].x {
			sum += pts[j].y
			j++
		}
		f.x = append(f.x, pts[i].x)
		f.y = append(f.y, sum/float64(j-i))
		i = j
	}
}

// constant is an Interpolator returning a fixed value everywhere.
type constant float64

func (c constant) Eval(float64) float64 { return float64(c) }
func (c constant) Knots() []float64     { return nil }

// linear is a piecewise-linear interpolant over sorted distinct knots.
type linear struct{ x, y []float64 }

func (l *linear) Knots() []float64 { return l.x }

func (l *linear) Eval(x float64) float64 {
	n := len(l.x)
	if x <= l.x[0] {
		return l.y[0]
	}
	if x >= l.x[n-1] {
		return l.y[n-1]
	}
	i := sort.SearchFloat64s(l.x, x)
	if l.x[i] == x {
		return l.y[i]
	}
	// x lies in (l.x[i-1], l.x[i]).
	t := (x - l.x[i-1]) / (l.x[i] - l.x[i-1])
	return l.y[i-1] + t*(l.y[i]-l.y[i-1])
}

// cubic is a piecewise-cubic Hermite interpolant: on segment i the
// curve is defined by endpoint values y[i], y[i+1] and endpoint slopes
// m[i], m[i+1]. The natural spline is fitted into this form.
type cubic struct {
	x, y, m []float64
}

func (c *cubic) Knots() []float64 { return c.x }

func (c *cubic) Eval(x float64) float64 {
	n := len(c.x)
	if x <= c.x[0] {
		return c.y[0]
	}
	if x >= c.x[n-1] {
		return c.y[n-1]
	}
	i := sort.SearchFloat64s(c.x, x)
	if c.x[i] == x {
		return c.y[i]
	}
	i-- // segment index
	h := c.x[i+1] - c.x[i]
	t := (x - c.x[i]) / h
	t2 := t * t
	t3 := t2 * t
	h00 := 2*t3 - 3*t2 + 1
	h10 := t3 - 2*t2 + t
	h01 := -2*t3 + 3*t2
	h11 := t3 - t2
	return h00*c.y[i] + h10*h*c.m[i] + h01*c.y[i+1] + h11*h*c.m[i+1]
}

// fitNatural computes natural-cubic-spline endpoint slopes into f.m by
// solving the standard tridiagonal system for the second derivatives
// and converting to Hermite form.
func (f *Fitter) fitNatural() {
	x, y := f.x, f.y
	n := len(x)
	h := grow(f.h, n-1)
	f.h = h
	for i := range h {
		h[i] = x[i+1] - x[i]
	}
	// Solve for second derivatives sigma via the Thomas algorithm.
	// Natural boundary: sigma[0] = sigma[n-1] = 0.
	sigma := grow(f.w, n)
	f.w = sigma
	clear(sigma)
	if n > 2 {
		// Subdiagonal h[i], diagonal b, superdiagonal h[i+1], rhs d for
		// the interior unknowns sigma[1..n-2].
		m := n - 2
		b, d := grow(f.b, m), grow(f.d, m)
		f.b, f.d = b, d
		for i := 0; i < m; i++ {
			b[i] = 2 * (h[i] + h[i+1])
			d[i] = 6 * ((y[i+2]-y[i+1])/h[i+1] - (y[i+1]-y[i])/h[i])
		}
		// Forward elimination.
		for i := 1; i < m; i++ {
			w := h[i] / b[i-1]
			b[i] -= w * h[i]
			d[i] -= w * d[i-1]
		}
		// Back substitution.
		sigma[m] = d[m-1] / b[m-1]
		for i := m - 2; i >= 0; i-- {
			sigma[i+1] = (d[i] - h[i+1]*sigma[i+2]) / b[i]
		}
	}
	// Convert to endpoint slopes: m[i] = dy/dx at knot i.
	slopes := grow(f.m, n)
	f.m = slopes
	for i := 0; i < n-1; i++ {
		slopes[i] = (y[i+1]-y[i])/h[i] - h[i]/6*(2*sigma[i]+sigma[i+1])
	}
	last := n - 2
	slopes[n-1] = (y[n-1]-y[last])/h[last] + h[last]/6*(2*sigma[n-1]+sigma[last])
}
