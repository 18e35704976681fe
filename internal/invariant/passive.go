package invariant

// Passive-traces backend rules. The backend has no leaders and no
// heartbeats, so none of I1–I5 apply; what its event stream can prove
// instead:
//
//	P1 trace-monotonic     A mote's deposited trace sequence numbers
//	                       strictly increase (deposits draw from the
//	                       mote's correlation counter, so a repeated or
//	                       regressed sequence means a duplicated or
//	                       replayed deposit).
//	P2 report-without-trace  Context-state output needs a supporting
//	                       trace: an estimator activation (takeover)
//	                       requires a fresh own deposit within the
//	                       candidacy window, and a pursuer report
//	                       (Ctx.SendNode) requires trace activity at the
//	                       sender within the staleness bound.
//	P3 estimate-stale      An active estimator whose whole trace field
//	                       has aged past the staleness bound must have
//	                       stepped down: once the newest deposit anywhere
//	                       is older than group.WaitFactor x heartbeat
//	                       (+ 1s slack), no mote may still be active.
//
// All rules stay sound on nominal runs via the same discipline as the
// leader set: the stream must prove the breach, faulted motes are
// exempt through their fault window, and P3 is deduplicated per
// activation episode.

import (
	"fmt"
	"time"

	"envirotrack/internal/obs"
	"envirotrack/internal/trace"
)

// passiveState accumulates what the passive rules need from the stream.
type passiveState struct {
	traceSeq map[int]uint64        // mote -> highest deposited trace seq
	lastOwn  map[int]time.Duration // mote -> last own trace deposit
	lastAct  map[int]time.Duration // mote -> last trace activity (deposit or integration)

	lastDeposit time.Duration // newest trace deposit anywhere
	anyDeposit  bool

	active map[int]*estimatorRec // mote -> current active-estimator episode
}

// estimatorRec is one mote's active-estimator episode.
type estimatorRec struct {
	label   string
	since   time.Duration
	flagged bool // estimate-stale already reported for this episode
}

func newPassiveState() *passiveState {
	return &passiveState{
		traceSeq: make(map[int]uint64),
		lastOwn:  make(map[int]time.Duration),
		lastAct:  make(map[int]time.Duration),
		active:   make(map[int]*estimatorRec),
	}
}

// emitPassive applies the passive-traces rules P1–P3.
func (c *Checker) emitPassive(ev obs.Event) {
	p := c.passive
	switch ev.Type {
	case obs.EvMoteFailed:
		c.failedNow[ev.Mote] = true
		c.lastFault[ev.Mote] = ev.At

	case obs.EvMoteRestored:
		c.failedNow[ev.Mote] = false
		c.lastFault[ev.Mote] = ev.At

	case obs.EvReportSent:
		switch ev.Kind {
		case trace.KindTrace:
			c.checkTraceDeposit(ev)
		case trace.KindReport:
			c.checkPassiveReport(ev)
		}

	case obs.EvRouteDelivered:
		// A delivered gossip span means the receiver integrated at least
		// one fresh trace record.
		if ev.Kind == trace.KindTrace && !c.failedNow[ev.Mote] {
			p.lastAct[ev.Mote] = ev.At
		}

	case obs.EvLabelCreated:
		// The minting activation: its first deposit follows at the same
		// instant, so no freshness precondition exists yet.
		p.active[ev.Mote] = &estimatorRec{label: ev.Label, since: ev.At}

	case obs.EvLabelTakeover:
		c.checkTakeoverFreshness(ev)
		p.active[ev.Mote] = &estimatorRec{label: ev.Label, since: ev.At}

	case obs.EvLeaderStepDown:
		delete(p.active, ev.Mote)
	}

	c.sweepEstimateStale(ev.At)
}

// checkTraceDeposit (P1): a mote's own deposits carry strictly
// increasing sequence numbers. Also records the deposit for P2/P3.
func (c *Checker) checkTraceDeposit(ev obs.Event) {
	p := c.passive
	if last, ok := p.traceSeq[ev.Mote]; ok && ev.Seq <= last {
		c.record(Violation{
			At: ev.At, Invariant: TraceMonotonic, Label: ev.Label, Mote: ev.Mote, Run: ev.Run,
			Detail: fmt.Sprintf("trace deposit seq %d not above previous %d", ev.Seq, last),
		})
	} else {
		p.traceSeq[ev.Mote] = ev.Seq
	}
	p.lastOwn[ev.Mote] = ev.At
	p.lastAct[ev.Mote] = ev.At
	if !p.anyDeposit || ev.At > p.lastDeposit {
		p.anyDeposit = true
		p.lastDeposit = ev.At
	}
}

// checkTakeoverFreshness (P2, activation half): the local election rule
// only activates a mote whose own trace is younger than the candidacy
// window (ReceiveFactor x heartbeat — the same formula as the leader
// backend's minimum takeover silence), so a takeover without a
// sufficiently fresh own deposit is a bug. Deposit and takeover events
// share the simulation clock, so the bound needs no slack.
func (c *Checker) checkTakeoverFreshness(ev obs.Event) {
	p := c.passive
	own, ok := p.lastOwn[ev.Mote]
	if ok {
		if fault, faulted := c.lastFault[ev.Mote]; faulted && fault >= own {
			return // a fault window since the deposit blurs attribution
		}
	}
	window := c.cfg.minTakeoverSilence()
	if !ok || ev.At-own > window {
		age := "no own deposit observed"
		if ok {
			age = fmt.Sprintf("own deposit %v old", ev.At-own)
		}
		c.record(Violation{
			At: ev.At, Invariant: ReportWithoutTrace, Label: ev.Label, Mote: ev.Mote, Run: ev.Run,
			Detail: fmt.Sprintf("estimator takeover without a fresh own trace: %s (candidacy window %v)", age, window),
		})
	}
}

// checkPassiveReport (P2, report half): a pursuer report originates from
// the active estimator's context objects, which exist only while the
// trace field supports an estimate — so the sender must have trace
// activity within the staleness bound.
func (c *Checker) checkPassiveReport(ev obs.Event) {
	p := c.passive
	if c.failedNow[ev.Mote] {
		return
	}
	last, ok := p.lastAct[ev.Mote]
	if !ok {
		c.record(Violation{
			At: ev.At, Invariant: ReportWithoutTrace, Label: ev.Label, Mote: ev.Mote, Run: ev.Run,
			Detail: "report sent with no trace activity ever observed at the sender",
		})
		return
	}
	if fault, faulted := c.lastFault[ev.Mote]; faulted && fault >= last {
		return // the crash window may have swallowed intervening activity
	}
	bound := c.cfg.traceBound()
	if ev.At-last > bound {
		c.record(Violation{
			At: ev.At, Invariant: ReportWithoutTrace, Label: ev.Label, Mote: ev.Mote, Run: ev.Run,
			Detail: fmt.Sprintf("report sent %v after the sender's last trace activity (bound %v)", ev.At-last, bound),
		})
	}
}

// sweepEstimateStale (P3): once the newest deposit anywhere is older
// than the staleness bound, every still-active estimator's own view is
// at least as old, so its stale timer must have stepped it down. The
// episode start caps the measured age so an activation during a quiet
// stream is not blamed for staleness it never saw.
func (c *Checker) sweepEstimateStale(at time.Duration) {
	p := c.passive
	if !p.anyDeposit || len(p.active) == 0 {
		return
	}
	bound := c.cfg.traceBound()
	if at-p.lastDeposit <= bound {
		return
	}
	for mote, rec := range p.active {
		if rec.flagged || c.failedNow[mote] {
			continue
		}
		if fault, faulted := c.lastFault[mote]; faulted && fault >= p.lastDeposit {
			continue
		}
		start := p.lastDeposit
		if rec.since > start {
			start = rec.since
		}
		if at-start <= bound {
			continue
		}
		rec.flagged = true
		c.record(Violation{
			At: at, Invariant: EstimateStale, Label: rec.label, Mote: mote, Run: c.run,
			Detail: fmt.Sprintf("estimator still active %v after the last trace deposit (staleness bound %v)",
				at-start, bound),
		})
	}
}
