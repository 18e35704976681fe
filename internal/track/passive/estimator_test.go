package passive

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"envirotrack/internal/geom"
)

// refEstimator is the brute-force reference: it keeps the raw live point
// set (same window and capacity semantics as Estimator) and refits the
// least-squares line from scratch on every query. The property test
// checks the incremental sums against it, bounding their accumulated
// floating-point drift.
type refEstimator struct {
	window time.Duration
	pts    []Point
}

func (r *refEstimator) add(p Point) {
	if len(r.pts) >= maxPoints {
		oldest := 0
		for i, q := range r.pts {
			if q.At < r.pts[oldest].At {
				oldest = i
			}
		}
		r.pts = append(r.pts[:oldest], r.pts[oldest+1:]...)
	}
	r.pts = append(r.pts, p)
}

func (r *refEstimator) evict(now time.Duration) {
	horizon := now - r.window
	keep := r.pts[:0]
	for _, p := range r.pts {
		if p.At >= horizon {
			keep = append(keep, p)
		}
	}
	r.pts = keep
}

func (r *refEstimator) estimate(now time.Duration) (geom.Point, bool) {
	if len(r.pts) == 0 {
		return geom.Point{}, false
	}
	// Fit in times relative to the oldest live point: the least-squares
	// line is shift-invariant, so this computes the same estimate as
	// absolute timestamps in exact arithmetic while staying conditioned
	// at large simulation times (matching the estimator's epoch scheme —
	// fitting in raw absolute seconds loses the comparison's precision to
	// the reference's own cancellation, not the estimator's drift).
	n := float64(len(r.pts))
	oldest, newest := r.pts[0].At, r.pts[0].At
	for _, p := range r.pts {
		if p.At < oldest {
			oldest = p.At
		}
		if p.At > newest {
			newest = p.At
		}
	}
	var st, st2, sx, sy, stx, sty float64
	for _, p := range r.pts {
		t := (p.At - oldest).Seconds()
		st += t
		st2 += t * t
		sx += p.Pos.X
		sy += p.Pos.Y
		stx += t * p.Pos.X
		sty += t * p.Pos.Y
	}
	cx, cy := sx/n, sy/n
	denom := n*st2 - st*st
	if denom < 1e-9 {
		return geom.Point{X: cx, Y: cy}, true
	}
	bx := (n*stx - st*sx) / denom
	by := (n*sty - st*sy) / denom
	t := now
	if t > newest+r.window/2 {
		t = newest + r.window/2
	}
	dt := (t - oldest).Seconds() - st/n
	return geom.Point{X: cx + bx*dt, Y: cy + by*dt}, true
}

// TestEstimatorMatchesReference is the property test: over long random
// schedules of adds, evictions, and queries, the incremental estimator
// must agree with the from-scratch reference refit within a tight
// floating-point tolerance, and their live point counts must match
// exactly.
func TestEstimatorMatchesReference(t *testing.T) {
	const (
		window = 2100 * time.Millisecond
		trials = 20
		steps  = 400
		tol    = 1e-6
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		est := NewEstimator(window)
		ref := &refEstimator{window: window}
		now := time.Duration(0)
		for step := 0; step < steps; step++ {
			// Time advances in jittered sub-window increments, so points
			// continually age across the eviction horizon.
			now += time.Duration(rng.Int63n(int64(window / 4)))
			switch rng.Intn(4) {
			case 0, 1: // add a point near the current time (possibly in the recent past)
				at := now - time.Duration(rng.Int63n(int64(window/2)))
				p := Point{At: at, Pos: geom.Pt(rng.Float64()*10, rng.Float64()*10)}
				est.Add(p)
				ref.add(p)
			case 2: // evict
				est.Evict(now)
				ref.evict(now)
			case 3: // burst of simultaneous points (degenerate time spread)
				at := now
				for k := 0; k < 3; k++ {
					p := Point{At: at, Pos: geom.Pt(rng.Float64()*10, rng.Float64()*10)}
					est.Add(p)
					ref.add(p)
				}
			}
			if est.Len() != len(ref.pts) {
				t.Fatalf("trial %d step %d: live points = %d, reference = %d", trial, step, est.Len(), len(ref.pts))
			}
			got, gotOK := est.Estimate(now)
			want, wantOK := ref.estimate(now)
			if gotOK != wantOK {
				t.Fatalf("trial %d step %d: estimate ok = %t, reference = %t", trial, step, gotOK, wantOK)
			}
			if !gotOK {
				continue
			}
			if math.Abs(got.X-want.X) > tol || math.Abs(got.Y-want.Y) > tol {
				t.Fatalf("trial %d step %d: estimate %v diverges from reference %v (n=%d)",
					trial, step, got, want, est.Len())
			}
		}
	}
}

// TestEstimatorCapacityBound floods the estimator past maxPoints and
// checks the cap holds by evicting the oldest point first.
func TestEstimatorCapacityBound(t *testing.T) {
	est := NewEstimator(time.Hour)
	for i := 0; i < maxPoints+50; i++ {
		est.Add(Point{At: time.Duration(i) * time.Millisecond, Pos: geom.Pt(float64(i), 0)})
	}
	if est.Len() != maxPoints {
		t.Fatalf("live points = %d, want cap %d", est.Len(), maxPoints)
	}
	if newest, ok := est.Newest(); !ok || newest != time.Duration(maxPoints+49)*time.Millisecond {
		t.Errorf("newest = %v, %t; want the last added point", newest, ok)
	}
}

// TestEstimatorEmptyAndDegenerate pins the edge cases: no points means
// no estimate; a single instant's points mean the centroid.
func TestEstimatorEmptyAndDegenerate(t *testing.T) {
	est := NewEstimator(time.Second)
	if _, ok := est.Estimate(0); ok {
		t.Error("empty estimator produced an estimate")
	}
	est.Add(Point{At: time.Second, Pos: geom.Pt(2, 0)})
	est.Add(Point{At: time.Second, Pos: geom.Pt(4, 2)})
	got, ok := est.Estimate(time.Second)
	if !ok {
		t.Fatal("no estimate from two live points")
	}
	if math.Abs(got.X-3) > 1e-12 || math.Abs(got.Y-1) > 1e-12 {
		t.Errorf("degenerate-spread estimate = %v, want centroid (3,1)", got)
	}
}

// scanEstimator is the scan-always form of Estimator, kept as the
// differential baseline: every Add and Evict rescans the live set for
// the oldest point, Evict always scans, and Newest scans. The fast paths
// must reproduce its live set, order and running sums bit for bit,
// because the passive traces fix the sums' rounding.
type scanEstimator struct {
	window                    time.Duration
	epoch                     time.Duration
	pts                       []Point
	n                         int
	st, st2, sx, sy, stx, sty float64
}

func (e *scanEstimator) newest() (time.Duration, bool) {
	if e.n == 0 {
		return 0, false
	}
	newest := e.pts[0].At
	for _, p := range e.pts[1:] {
		if p.At > newest {
			newest = p.At
		}
	}
	return newest, true
}

func (e *scanEstimator) add(p Point) {
	if e.n >= maxPoints {
		oldest := 0
		for i, q := range e.pts {
			if q.At < e.pts[oldest].At {
				oldest = i
			}
		}
		e.remove(oldest)
	}
	if e.n == 0 {
		e.epoch = p.At
	}
	e.pts = append(e.pts, p)
	t := (p.At - e.epoch).Seconds()
	e.n++
	e.st += t
	e.st2 += t * t
	e.sx += p.Pos.X
	e.sy += p.Pos.Y
	e.stx += t * p.Pos.X
	e.sty += t * p.Pos.Y
	e.maybeRebase()
}

func (e *scanEstimator) evict(now time.Duration) {
	horizon := now - e.window
	for i := 0; i < len(e.pts); {
		if e.pts[i].At < horizon {
			e.remove(i)
			continue
		}
		i++
	}
	e.maybeRebase()
}

func (e *scanEstimator) maybeRebase() {
	if e.n == 0 {
		return
	}
	oldest := e.pts[0].At
	for _, p := range e.pts[1:] {
		if p.At < oldest {
			oldest = p.At
		}
	}
	if oldest-e.epoch <= 4*e.window {
		return
	}
	e.epoch = oldest
	e.st, e.st2, e.sx, e.sy, e.stx, e.sty = 0, 0, 0, 0, 0, 0
	for _, p := range e.pts {
		t := (p.At - e.epoch).Seconds()
		e.st += t
		e.st2 += t * t
		e.sx += p.Pos.X
		e.sy += p.Pos.Y
		e.stx += t * p.Pos.X
		e.sty += t * p.Pos.Y
	}
}

func (e *scanEstimator) remove(i int) {
	p := e.pts[i]
	t := (p.At - e.epoch).Seconds()
	e.n--
	e.st -= t
	e.st2 -= t * t
	e.sx -= p.Pos.X
	e.sy -= p.Pos.Y
	e.stx -= t * p.Pos.X
	e.sty -= t * p.Pos.Y
	last := len(e.pts) - 1
	e.pts[i] = e.pts[last]
	e.pts = e.pts[:last]
}

func (e *scanEstimator) estimate(now time.Duration) (geom.Point, bool) {
	if e.n == 0 {
		return geom.Point{}, false
	}
	n := float64(e.n)
	cx, cy := e.sx/n, e.sy/n
	denom := n*e.st2 - e.st*e.st
	if denom < 1e-9 {
		return geom.Point{X: cx, Y: cy}, true
	}
	bx := (n*e.stx - e.st*e.sx) / denom
	by := (n*e.sty - e.st*e.sy) / denom
	t := now
	if newest, ok := e.newest(); ok && t > newest+e.window/2 {
		t = newest + e.window/2
	}
	dt := (t - e.epoch).Seconds() - e.st/n
	return geom.Point{X: cx + bx*dt, Y: cy + by*dt}, true
}

// sameBits reports whether two floats are the same bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestEstimatorMatchesScanBitExact drives Estimator and scanEstimator
// with the same random schedules — out-of-order adds, bursts at one
// instant, bursts past maxPoints, sub-window clock steps with eviction,
// evictions with the oldest point exactly on the horizon or one
// nanosecond past it, and jumps that evict everything — and requires the same live points
// in the same order, the same epoch, bit-identical running sums and
// estimates, and the same newest point after every operation. It also
// checks the schedules reached every path: overflow, rebase and a full
// eviction.
func TestEstimatorMatchesScanBitExact(t *testing.T) {
	const (
		window = 2100 * time.Millisecond
		trials = 20
		steps  = 2000
	)
	var overflows, rebases, emptied int
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		est := NewEstimator(window)
		ref := &scanEstimator{window: window}
		now := time.Duration(rng.Int63n(int64(time.Hour)))
		add := func(at time.Duration) {
			p := Point{At: at, Pos: geom.Pt(rng.Float64()*100, rng.Float64()*100)}
			if ref.n == maxPoints {
				overflows++
			}
			epoch, n := ref.epoch, ref.n
			est.Add(p)
			ref.add(p)
			if n > 0 && ref.epoch != epoch {
				rebases++
			}
		}
		evict := func() {
			epoch, n := ref.epoch, ref.n
			est.Evict(now)
			ref.evict(now)
			if ref.n > 0 && ref.epoch != epoch {
				rebases++
			}
			if n > 0 && ref.n == 0 {
				emptied++
			}
		}
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(20); {
			case op < 8: // an add anywhere in the last window and a half, often out of order
				add(now - time.Duration(rng.Int63n(int64(3*window/2))))
			case op < 12: // a burst at one instant, occasionally past the cap
				k := 1 + rng.Intn(8)
				if rng.Intn(25) == 0 {
					k = maxPoints + rng.Intn(64)
				}
				at := now - time.Duration(rng.Int63n(int64(window/4)))
				for ; k > 0; k-- {
					add(at)
				}
			case op < 19: // a sub-window clock step, then eviction
				now += time.Duration(rng.Int63n(int64(window / 3)))
				evict()
			default: // eviction on the oldest point's horizon, or after a jump that empties the set
				if rng.Intn(3) == 0 {
					now += 2 * window
				} else if ref.n > 0 {
					oldest := ref.pts[0].At
					for _, p := range ref.pts {
						oldest = min(oldest, p.At)
					}
					// The oldest point sits on the horizon (kept) or
					// one nanosecond past it (evicted).
					now = max(now, oldest+window+time.Duration(rng.Intn(2)))
				}
				evict()
			}

			if est.Len() != ref.n || len(est.pts) != len(ref.pts) {
				t.Fatalf("trial %d step %d: live points = %d, scan = %d", trial, step, est.Len(), ref.n)
			}
			for i := range ref.pts {
				p, q := est.pts[i], ref.pts[i]
				if p.At != q.At || !sameBits(p.Pos.X, q.Pos.X) || !sameBits(p.Pos.Y, q.Pos.Y) {
					t.Fatalf("trial %d step %d: pts[%d] = %+v, scan %+v", trial, step, i, p, q)
				}
			}
			if est.epoch != ref.epoch {
				t.Fatalf("trial %d step %d: epoch %v, scan %v", trial, step, est.epoch, ref.epoch)
			}
			got := [...]float64{est.st, est.st2, est.sx, est.sy, est.stx, est.sty}
			want := [...]float64{ref.st, ref.st2, ref.sx, ref.sy, ref.stx, ref.sty}
			for i := range got {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("trial %d step %d: sum %d = %v, scan %v", trial, step, i, got[i], want[i])
				}
			}
			gn, gok := est.Newest()
			wn, wok := ref.newest()
			if gn != wn || gok != wok {
				t.Fatalf("trial %d step %d: newest %v %t, scan %v %t", trial, step, gn, gok, wn, wok)
			}
			q := now + time.Duration(rng.Int63n(int64(window)))
			gp, gok := est.Estimate(q)
			wp, wok := ref.estimate(q)
			if gok != wok || !sameBits(gp.X, wp.X) || !sameBits(gp.Y, wp.Y) {
				t.Fatalf("trial %d step %d: estimate %v %t, scan %v %t", trial, step, gp, gok, wp, wok)
			}
		}
	}
	if overflows == 0 || rebases == 0 || emptied == 0 {
		t.Errorf("schedules missed a path: %d overflows, %d rebases, %d full evictions", overflows, rebases, emptied)
	}
	t.Logf("%d overflows, %d rebases, %d full evictions", overflows, rebases, emptied)
}
