// Package geom provides the planar geometry primitives used throughout the
// simulator: points, vectors, segments, and grid helpers. Coordinates are in
// abstract "grid units"; one grid unit corresponds to the inter-mote spacing
// of the deployment (140 m in the paper's T-72 scenario).
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the 2-D sensor field, in grid units.
type Point struct {
	X float64
	Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point {
	return Point{X: x, Y: y}
}

// Add returns p translated by the vector v.
func (p Point) Add(v Vector) Point {
	return Point{X: p.X + v.DX, Y: p.Y + v.DY}
}

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vector {
	return Vector{DX: p.X - q.X, DY: p.Y - q.Y}
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root on hot paths such as neighbor scans.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Within reports whether q lies within radius r of p (inclusive).
func (p Point) Within(q Point, r float64) bool {
	return p.Dist2(q) <= r*r
}

// Lerp linearly interpolates between p and q; t=0 yields p, t=1 yields q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{
		X: p.X + (q.X-p.X)*t,
		Y: p.Y + (q.Y-p.Y)*t,
	}
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y)
}

// Vector is a displacement in the plane.
type Vector struct {
	DX float64
	DY float64
}

// Vec is shorthand for constructing a Vector.
func Vec(dx, dy float64) Vector {
	return Vector{DX: dx, DY: dy}
}

// Len returns the Euclidean length of v.
func (v Vector) Len() float64 {
	return math.Hypot(v.DX, v.DY)
}

// Scale returns v scaled by k.
func (v Vector) Scale(k float64) Vector {
	return Vector{DX: v.DX * k, DY: v.DY * k}
}

// Unit returns the unit vector in the direction of v. The zero vector is
// returned unchanged.
func (v Vector) Unit() Vector {
	l := v.Len()
	if l == 0 {
		return Vector{}
	}
	return Vector{DX: v.DX / l, DY: v.DY / l}
}

// Add returns the component-wise sum of v and w.
func (v Vector) Add(w Vector) Vector {
	return Vector{DX: v.DX + w.DX, DY: v.DY + w.DY}
}

// Dot returns the dot product of v and w.
func (v Vector) Dot(w Vector) float64 {
	return v.DX*w.DX + v.DY*w.DY
}

// Centroid returns the arithmetic mean of the given points. It returns the
// zero Point when pts is empty.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	n := float64(len(pts))
	return Point{X: sx / n, Y: sy / n}
}

// Rect is an axis-aligned rectangle described by its min and max corners.
type Rect struct {
	Min Point
	Max Point
}

// Contains reports whether p lies inside r (inclusive of all edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Grid describes a rectangular deployment of motes with unit spacing: motes
// sit at integer coordinates (0,0) .. (Cols-1, Rows-1).
type Grid struct {
	Cols int
	Rows int
}

// Points enumerates all grid positions in row-major order.
func (g Grid) Points() []Point {
	pts := make([]Point, 0, g.Cols*g.Rows)
	for y := 0; y < g.Rows; y++ {
		for x := 0; x < g.Cols; x++ {
			pts = append(pts, Point{X: float64(x), Y: float64(y)})
		}
	}
	return pts
}

// Bounds returns the rectangle spanned by the grid points.
func (g Grid) Bounds() Rect {
	return Rect{
		Min: Point{},
		Max: Point{X: float64(g.Cols - 1), Y: float64(g.Rows - 1)},
	}
}
