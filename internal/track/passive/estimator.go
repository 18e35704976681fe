package passive

import (
	"time"

	"envirotrack/internal/geom"
)

// Point is one timestamped position observation (a deposited trace).
type Point struct {
	At  time.Duration
	Pos geom.Point
}

// Estimator interpolates the target position from the trace field: a
// least-squares linear fit of position against time over the live trace
// window, evaluated at the query instant. It is incremental — Add and
// Evict adjust running sums instead of refitting from scratch — and it
// keeps the oldest and newest live timestamps, so Add, Newest and an
// Evict that finds nothing stale are O(1). An Evict that does remove
// points makes one pass over the live set, which also finds the new
// oldest point; only an Add past maxPoints scans twice (to pick the
// oldest point to drop and to find its successor). The brute-force
// reference refit lives in the property test, which bounds the
// accumulated floating-point drift of the incremental sums.
//
// Times enter the sums relative to an epoch rebased whenever the live
// set empties — and, on long uninterrupted runs, whenever the oldest
// live point drifts more than a few windows past it. Raw simulation
// timestamps grow without bound, and the fit denominator n*st2 - st*st
// cancels catastrophically once t is large against the trace window;
// epoch-relative times keep it conditioned, and the periodic rebase
// (an O(n) resummation, n <= maxPoints) also discards whatever drift
// the incremental add/remove arithmetic accumulated since the last one.
type Estimator struct {
	window time.Duration // live window: the trace-field staleness bound
	epoch  time.Duration // time origin of the running sums
	// oldest and newest are the extreme At over pts; meaningless when
	// pts is empty.
	oldest, newest time.Duration
	// pts holds the live points in insertion order, disturbed only by
	// remove's swap with the last point. The running sums are updated in
	// this order, so it fixes their floating-point rounding.
	pts []Point

	// Running sums over live points, times in seconds since epoch.
	st, st2, sx, sy, stx, sty float64
}

// maxPoints bounds the live set so a dense neighborhood cannot grow the
// estimator without limit; the oldest point is evicted beyond it.
const maxPoints = 256

// Len returns the number of live points.
func (e *Estimator) Len() int { return len(e.pts) }

// Newest returns the timestamp of the most recent live point (zero, false
// when empty).
func (e *Estimator) Newest() (time.Duration, bool) {
	if len(e.pts) == 0 {
		return 0, false
	}
	return e.newest, true
}

// Add integrates one trace point.
func (e *Estimator) Add(p Point) {
	if len(e.pts) >= maxPoints {
		oldest := 0
		for i, q := range e.pts {
			if q.At < e.pts[oldest].At {
				oldest = i
			}
		}
		e.remove(oldest)
		// The dropped point held the minimum: find its successor. The
		// newest At stays (the drop takes it only when all points share
		// it).
		e.oldest = e.pts[0].At
		for _, q := range e.pts[1:] {
			e.oldest = min(e.oldest, q.At)
		}
	}
	if len(e.pts) == 0 {
		e.epoch = p.At
		e.oldest, e.newest = p.At, p.At
	} else {
		e.oldest = min(e.oldest, p.At)
		e.newest = max(e.newest, p.At)
	}
	e.pts = append(e.pts, p)
	t := (p.At - e.epoch).Seconds()
	e.st += t
	e.st2 += t * t
	e.sx += p.Pos.X
	e.sy += p.Pos.Y
	e.stx += t * p.Pos.X
	e.sty += t * p.Pos.Y
	e.maybeRebase()
}

// Evict drops points older than the staleness window before now. With
// the oldest live point inside the window it returns at once: nothing is
// stale, and the epoch already passed maybeRebase's check after the last
// change to the live set.
func (e *Estimator) Evict(now time.Duration) {
	horizon := now - e.window
	if len(e.pts) == 0 || e.oldest >= horizon {
		return
	}
	// The removed points are the oldest, so the newest survives unless
	// the set empties; the pass visits each survivor once to find the
	// new oldest.
	oldest := e.newest
	for i := 0; i < len(e.pts); {
		if e.pts[i].At < horizon {
			e.remove(i)
			continue
		}
		oldest = min(oldest, e.pts[i].At)
		i++
	}
	e.oldest = oldest
	e.maybeRebase()
}

// maybeRebase re-anchors the epoch at the oldest live point once it has
// drifted more than a few windows behind, recomputing the running sums
// from the live set. This keeps the fit conditioned (epoch-relative
// times stay on the order of the window) and bounds the incremental
// sums' floating-point drift to what accumulates between rebases.
func (e *Estimator) maybeRebase() {
	if len(e.pts) == 0 || e.oldest-e.epoch <= 4*e.window {
		return
	}
	e.epoch = e.oldest
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

// remove deletes pts[i] (order not preserved) and subtracts its sums.
func (e *Estimator) remove(i int) {
	p := e.pts[i]
	t := (p.At - e.epoch).Seconds()
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

// Estimate interpolates the target position at now. With a degenerate
// time spread (all traces near-simultaneous) it falls back to the
// centroid; with none it reports no estimate. Extrapolation is clamped to
// half a window past the newest trace so a stale field cannot fling the
// estimate along an old velocity vector.
func (e *Estimator) Estimate(now time.Duration) (geom.Point, bool) {
	if len(e.pts) == 0 {
		return geom.Point{}, false
	}
	n := float64(len(e.pts))
	cx, cy := e.sx/n, e.sy/n
	denom := n*e.st2 - e.st*e.st
	// Degenerate spread: the fit is ill-conditioned, use the centroid.
	if denom < 1e-9 {
		return geom.Point{X: cx, Y: cy}, true
	}
	bx := (n*e.stx - e.st*e.sx) / denom
	by := (n*e.sty - e.st*e.sy) / denom
	t := now
	if newest, ok := e.Newest(); ok && t > newest+e.window/2 {
		t = newest + e.window/2
	}
	dt := (t - e.epoch).Seconds() - e.st/n
	return geom.Point{X: cx + bx*dt, Y: cy + by*dt}, true
}
