package geom

import "math"

// Finite reports whether both of p's coordinates are finite.
func (p Point) Finite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// CellIndex is a static spatial index over a set of points: uniform square
// cells over the bounding box of the finite points, stored CSR-style. Cell
// c = cx + cy*nx holds entries[start[c]:start[c+1]], the indices of its
// points in the slice the index was built from, in input order; a row of
// cells is contiguous, so the cells x0..x1 of row y are one slice (Strip).
// The index keeps no positions: a caller that filters a cell by distance
// reads them from its own points. A point with a non-finite coordinate
// sits in a clamped edge cell. A CellIndex is read-only once built and
// safe for concurrent reads.
type CellIndex struct {
	minX, minY, side float64
	nx, ny           int
	start            []int32
	entries          []int32
}

// NewCellIndex builds the index of pts with cells of side
// max(minSide, √(w·h/n), (w+h)/n), for the n finite points and their w×h
// bounding box: at least minSide, and about one point per cell over an
// area, or per side-length over a line. It never has more than 2n+1
// cells. No finite point, one distinct one, or a spread too wide for
// float64 makes one cell.
func NewCellIndex(pts []Point, minSide float64) *CellIndex {
	x := &CellIndex{minX: math.Inf(1), minY: math.Inf(1)}
	maxX, maxY, n := math.Inf(-1), math.Inf(-1), 0
	for _, p := range pts {
		if p.Finite() {
			x.minX, x.minY = min(x.minX, p.X), min(x.minY, p.Y)
			maxX, maxY = max(maxX, p.X), max(maxY, p.Y)
			n++
		}
	}
	x.side, x.nx, x.ny = 1, 1, 1
	if n == 0 {
		x.minX, x.minY = 0, 0
	} else {
		w, h := maxX-x.minX, maxY-x.minY
		side := max(math.Sqrt(w*h/float64(n)), (w+h)/float64(n))
		if minSide > side {
			side = minSide
		}
		switch {
		case side > 0 && !math.IsInf(side, 1):
			x.side, x.nx, x.ny = side, int(w/side)+1, int(h/side)+1
		case side != 0: // NaN or +Inf: one cell as wide as the spread
			x.side = math.Inf(1)
		}
	}
	// Count, then place every point in input order.
	x.start = make([]int32, x.nx*x.ny+1)
	cells := make([]int32, len(pts))
	for i, p := range pts {
		cells[i] = int32(x.axis(p.X-x.minX, x.nx) + x.axis(p.Y-x.minY, x.ny)*x.nx)
		x.start[cells[i]+1]++
	}
	for c := 1; c < len(x.start); c++ {
		x.start[c] += x.start[c-1]
	}
	x.entries = make([]int32, len(pts))
	fill := append([]int32(nil), x.start[:len(x.start)-1]...)
	for i, c := range cells {
		x.entries[fill[c]] = int32(i)
		fill[c]++
	}
	return x
}

// Dims returns the number of cells along x and along y.
func (x *CellIndex) Dims() (nx, ny int) { return x.nx, x.ny }

// axis returns the cell, along an axis of n cells, that holds offset d
// from the minimum, clamped to the axis: NaN and -Inf map to 0.
func (x *CellIndex) axis(d float64, n int) int {
	switch f := d / x.side; {
	case !(f > 0):
		return 0
	case f >= float64(n-1):
		return n - 1
	default:
		return int(f)
	}
}

// Cover returns the cell ranges, inclusive, that the bounding box of the
// disc of radius r around c overlaps. The box is padded well past the
// rounding of Point.Within, which compares squared distances, so every
// point that Within puts in the disc lies in a covered cell. A disc that
// is not finite (a non-finite centre, or a radius whose square is not)
// covers every cell, since Within can put a non-finite point in it; an
// empty range (x0 > x1 or y0 > y1) means the disc misses every point.
func (x *CellIndex) Cover(c Point, r float64) (x0, y0, x1, y1 int) {
	r = math.Abs(r) // Within squares the radius
	r += 1e-9 * (1 + r + math.Abs(c.X) + math.Abs(c.Y))
	if !(r*r <= math.MaxFloat64) {
		return 0, 0, x.nx - 1, x.ny - 1
	}
	x0, x1 = x.span(c.X-r-x.minX, c.X+r-x.minX, x.nx)
	y0, y1 = x.span(c.Y-r-x.minY, c.Y+r-x.minY, x.ny)
	return x0, y0, x1, y1
}

// span returns the cells, along an axis of n cells, that the offsets
// lo..hi from the minimum overlap; empty (first > last) when none.
func (x *CellIndex) span(lo, hi float64, n int) (first, last int) {
	if hi < 0 || lo/x.side >= float64(n) {
		return 1, 0
	}
	return x.axis(lo, n), x.axis(hi, n)
}

// Strip returns the point indices of cells x0..x1 of row y, cell by cell.
func (x *CellIndex) Strip(y, x0, x1 int) []int32 {
	return x.entries[x.start[y*x.nx+x0]:x.start[y*x.nx+x1+1]]
}
