package geom

import (
	"math"
	"math/rand"
	"testing"
)

// cellLayouts are the point sets the index property test builds over.
var cellLayouts = []struct {
	name  string
	place func(rng *rand.Rand, pts []Point) Point
}{
	{"dense", func(rng *rand.Rand, _ []Point) Point {
		return Pt(rng.Float64()*24-8, rng.Float64()*24-8)
	}},
	{"sparse", func(rng *rand.Rand, pts []Point) Point {
		// Clusters about ±1e6 apart, some at negative coordinates.
		if len(pts) > 0 && rng.Intn(3) > 0 {
			c := pts[rng.Intn(len(pts))]
			return Pt(c.X+rng.NormFloat64()*3, c.Y+rng.NormFloat64()*3)
		}
		return Pt(float64(rng.Intn(5)-2)*1e6, float64(rng.Intn(5)-2)*1e6)
	}},
	{"line", func(rng *rand.Rand, _ []Point) Point {
		return Pt(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(7)-2)), 3)
	}},
	{"extremes", func(rng *rand.Rand, _ []Point) Point {
		xs := []float64{-1e308, -math.MaxFloat64, 0, 1, 1e308, math.MaxFloat64}
		return Pt(xs[rng.Intn(len(xs))], xs[rng.Intn(len(xs))])
	}},
	{"non-finite", func(rng *rand.Rand, _ []Point) Point {
		xs := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 2, -5}
		return Pt(xs[rng.Intn(len(xs))], xs[rng.Intn(len(xs))])
	}},
}

// TestCellIndexCoversEveryPointInADisc builds indices over random layouts,
// with and without a minimum cell side, and checks that each holds every
// point once, has at most 2n+1 cells, and covers, for random discs, every
// point Point.Within puts in the disc. Negative, NaN and infinite radii
// and non-finite centres are among the discs; a disc that is not finite
// must cover every cell.
func TestCellIndexCoversEveryPointInADisc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	radius := func(scale float64) float64 {
		switch rng.Intn(8) {
		case 0:
			return -rng.ExpFloat64() * scale
		case 1:
			return math.NaN()
		case 2:
			return math.Inf(1)
		case 3:
			return 1e200
		}
		return rng.ExpFloat64() * scale
	}
	for _, lay := range cellLayouts {
		for trial := 0; trial < 60; trial++ {
			pts := make([]Point, rng.Intn(200))
			for i := range pts {
				pts[i] = lay.place(rng, pts[:i])
			}
			minSide := 0.0
			if trial%2 == 1 {
				minSide = rng.ExpFloat64() * 3
			}
			x := NewCellIndex(pts, minSide)
			nx, ny := x.Dims()
			if nx*ny > 2*len(pts)+1 {
				t.Fatalf("%s trial %d: %dx%d cells for %d points", lay.name, trial, nx, ny, len(pts))
			}
			// cellOf[i] is the cell holding point i; every point is held once.
			cellOf := make([]int, len(pts))
			for i := range cellOf {
				cellOf[i] = -1
			}
			for c := 0; c < nx*ny; c++ {
				for _, i := range x.Strip(c/nx, c%nx, c%nx) {
					if cellOf[i] >= 0 {
						t.Fatalf("%s trial %d: point %d (%v) is held twice", lay.name, trial, i, pts[i])
					}
					cellOf[i] = c
				}
			}
			for i, c := range cellOf {
				if c < 0 {
					t.Fatalf("%s trial %d: point %d (%v) is in no cell", lay.name, trial, i, pts[i])
				}
			}
			for d := 0; d < 30; d++ {
				c := lay.place(rng, pts)
				if len(pts) > 0 && d%2 == 0 {
					c = pts[rng.Intn(len(pts))]
				}
				r := radius(math.Max(1, math.Abs(c.X)/1e3))
				x0, y0, x1, y1 := x.Cover(c, r)
				if !c.Finite() || math.IsNaN(r) || math.IsInf(r*r, 0) {
					if x0 != 0 || y0 != 0 || x1 != nx-1 || y1 != ny-1 {
						t.Fatalf("%s trial %d: the disc %v r=%v is not finite but covers [%d..%d]x[%d..%d] of %dx%d",
							lay.name, trial, c, r, x0, x1, y0, y1, nx, ny)
					}
				}
				for i, p := range pts {
					cx, cy := cellOf[i]%nx, cellOf[i]/nx
					if p.Within(c, r) && !(cx >= x0 && cx <= x1 && cy >= y0 && cy <= y1) {
						t.Fatalf("%s trial %d: %v lies in the disc %v r=%v but its cell (%d,%d) is outside the cover [%d..%d]x[%d..%d]",
							lay.name, trial, p, c, r, cx, cy, x0, x1, y0, y1)
					}
				}
			}
		}
	}
}
