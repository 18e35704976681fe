// Package invariant is a protocol-safety checker for EnviroTrack runs:
// an obs.Sink that replays the structured event stream of one run and
// mechanically checks group-management invariants the paper's aggregate
// metrics never examine. It is built to be sound on nominal runs — every
// rule only fires when the event stream *proves* a violation, reading what
// each mote's protocol layer handled and allowing grace windows — so a
// non-empty violation list always means a protocol bug (or an injected
// mutation), never simulator noise.
//
// The checked invariants:
//
//	I1 dual-leader        At most one active leader per context label:
//	                      two non-failed motes that both heartbeat the
//	                      same label, within direct radio range of each
//	                      other, for longer than 6 heartbeats.
//	I2 takeover-silence   A receive-timer takeover may fire only after
//	                      >= group.ReceiveFactor x heartbeat of label
//	                      silence. Silence runs from the last heartbeat
//	                      the member's manager heard (heartbeat_heard)
//	                      with the protocol's own (label, leader, seq)
//	                      dedup mirrored, so duplicated or flood-forwarded
//	                      copies never shrink it.
//	I3 report-after-teardown  No member keeps sending reports once its
//	                      label has had no leader for its members' notice
//	                      window plus 1s.
//	I4 directory-stale    No directory registration for a label that has
//	                      had no leader for 3s (eventual consistency of
//	                      the directory service).
//	I5 report-cadence     A stable member reports at least every
//	                      1.5 x ReportPeriod + 500ms (freshness
//	                      Pe = Le - d from Section 5.3).
//
// The I1–I5 rules above assume heartbeat group management and only run
// for the leader backend. A run under the passive-traces backend is
// checked against its own rule set instead (see passive.go): trace
// sequence monotonicity, no reports without a supporting trace, and the
// estimate-staleness bound. Config.Backend selects the rule set.
//
// The checker consumes the stream of a single run in event order; attach
// one Checker per run (the eval harness builds one per scenario seed).
package invariant

import (
	"fmt"
	"sync"
	"time"

	"envirotrack/internal/group"
	"envirotrack/internal/obs"
	"envirotrack/internal/trace"
)

// Config parameterizes the checker with the protocol timing of the run
// under observation. The timer factors are group's protocol constants;
// the zero value applies the group-config default heartbeat.
type Config struct {
	// Backend names the tracking backend of the run under observation
	// ("leader" or "passive"; empty means "leader"). The leader rules
	// I1–I5 assume heartbeat group management; "passive" selects the
	// passive-traces rule set instead.
	Backend string
	// Heartbeat is the leader heartbeat period — and, for the passive
	// backend, the trace deposit period (default 500ms).
	Heartbeat time.Duration
	// ReportPeriod is the expected member report cadence Pe. Zero
	// disables the I5 cadence check.
	ReportPeriod time.Duration
	// CommRadius is the radio range; the dual-leader rule only fires for
	// leader pairs within direct range (out-of-reach pairs cannot merge
	// by protocol means — Figure 4's h=0 cells create them by design).
	// Zero treats every pair as in range.
	CommRadius float64
	// Partitions lists network partitions the run is known to inject
	// (e.g. from a chaos schedule). A dual-leader pair severed by an
	// active partition is exempt — one leader per side is the only
	// reachable outcome — and the pair's grace clock restarts when the
	// partition heals.
	Partitions []PartitionWindow
	// MaxViolations caps the retained violation list (the count keeps
	// incrementing). Default 100.
	MaxViolations int
}

func (c Config) withDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = group.DefaultHeartbeatPeriod
	}
	if c.MaxViolations <= 0 {
		c.MaxViolations = 100
	}
	return c
}

// PartitionWindow is one scheduled network partition the checker must
// account for: a vertical cut at X active from At until Until. Until <=
// At means the partition never heals.
type PartitionWindow struct {
	X     float64
	At    time.Duration
	Until time.Duration
}

// directoryGrace bounds how stale a directory registration may be: one
// transport round-trip plus scheduling slack.
const directoryGrace = 3 * time.Second

// noticeWindow is the longest a member's receive timer can run: the
// jittered takeover timeout.
func (c Config) noticeWindow() time.Duration {
	return time.Duration(float64(c.Heartbeat) * group.ReceiveFactor * (1 + group.JitterFrac))
}

// minTakeoverSilence is the shortest legitimate silence before a
// receive-timer firing (jitter only lengthens the timer).
func (c Config) minTakeoverSilence() time.Duration {
	return time.Duration(float64(c.Heartbeat) * group.ReceiveFactor)
}

// dualLeaderGrace is how long same-label dual leadership must persist
// in-range before it is a violation; transient overlap is legitimate (a
// takeover resolves by weight-ordered yield within a couple of
// heartbeats).
func (c Config) dualLeaderGrace() time.Duration { return 6 * c.Heartbeat }

// teardownGrace is how long a leaderless label's members may keep
// reporting: the notice window of their receive timers plus 1s of
// transmission slack.
func (c Config) teardownGrace() time.Duration { return c.noticeWindow() + time.Second }

// cadenceSlack pads the I5 report-gap bound against CSMA deferrals and
// first-report desynchronization.
func (c Config) cadenceSlack() time.Duration { return c.ReportPeriod/2 + 500*time.Millisecond }

// traceBound is the passive backend's trace-field staleness bound,
// group.WaitFactor x heartbeat, padded by 1s against transmission and
// event-delivery skew.
func (c Config) traceBound() time.Duration {
	return time.Duration(float64(c.Heartbeat)*group.WaitFactor) + time.Second
}

// Violation is one proven invariant breach.
type Violation struct {
	At        time.Duration `json:"at"`
	Invariant string        `json:"invariant"`
	Label     string        `json:"label,omitempty"`
	Mote      int           `json:"mote"`
	Peer      int           `json:"peer,omitempty"`
	Detail    string        `json:"detail"`
	Run       int64         `json:"run,omitempty"`
}

// Invariant rule names, as reported in Violation.Invariant.
const (
	DualLeader          = "dual-leader"
	TakeoverSilence     = "takeover-silence"
	ReportAfterTeardown = "report-after-teardown"
	DirectoryStale      = "directory-stale"
	ReportCadence       = "report-cadence"

	// Passive-traces backend rules (see passive.go).
	TraceMonotonic     = "trace-monotonic"
	ReportWithoutTrace = "report-without-trace"
	EstimateStale      = "estimate-stale"
)

// leaderRec is the checker's view of one mote's leadership of a label.
type leaderRec struct {
	mote   int
	pos    obsPos
	since  time.Duration // leadership start, or last restore
	lastHB time.Duration // last heartbeat sent for the label
	failed bool
}

type obsPos struct{ x, y float64 }

func (p obsPos) within(q obsPos, r float64) bool {
	dx, dy := p.x-q.x, p.y-q.y
	return dx*dx+dy*dy <= r*r
}

// floodKey is a heartbeat flood: a label and its originating leader.
type floodKey struct {
	label  string
	origin int
}

// pairKey is an unordered dual-leader pair of a label (a < b).
type pairKey struct {
	label string
	a, b  int
}

// memberRec is the checker's view of one mote's membership.
type memberRec struct {
	label string
	since time.Duration
}

// rearmRec is the latest heard heartbeat or relinquish that re-armed a
// member's receive timer.
type rearmRec struct {
	label string
	at    time.Duration
}

// Checker consumes one run's event stream and accumulates violations.
// It implements obs.Sink; all state is guarded by a mutex so a checker
// can safely share a bus with other sinks, but it assumes the events of
// a single run arriving in time order.
type Checker struct {
	mu  sync.Mutex
	cfg Config

	leaders map[string]map[int]*leaderRec // label -> mote -> rec
	multi   map[string]bool               // labels with >= 2 leader recs
	flagged map[pairKey]bool              // dual-leader pairs already reported
	live    []*leaderRec                  // checkDualLeaders scratch

	members map[int]*memberRec
	rearms  map[int]rearmRec
	seen    map[int]map[floodKey]uint64 // mote -> flood -> max seq heard (protocol dedup mirror)

	lastFault map[int]time.Duration // last fail or restore event

	everLed    map[string]bool
	leaderGone map[string]time.Duration // label -> when its last live leader vanished

	lastReport map[int]rearmRec // member -> label + last report (or join) time

	// passive holds the passive-backend rule state; nil for leader runs
	// (the backend selects the whole rule set, see Emit).
	passive *passiveState

	now        time.Duration
	run        int64
	events     uint64
	violations []Violation
	count      int
}

// New builds a checker for one run.
func New(cfg Config) *Checker {
	c := &Checker{
		cfg:        cfg.withDefaults(),
		leaders:    make(map[string]map[int]*leaderRec),
		multi:      make(map[string]bool),
		flagged:    make(map[pairKey]bool),
		members:    make(map[int]*memberRec),
		rearms:     make(map[int]rearmRec),
		seen:       make(map[int]map[floodKey]uint64),
		lastFault:  make(map[int]time.Duration),
		everLed:    make(map[string]bool),
		leaderGone: make(map[string]time.Duration),
		lastReport: make(map[int]rearmRec),
	}
	if c.cfg.Backend == "passive" {
		c.passive = newPassiveState()
	}
	return c
}

// Emit implements obs.Sink. It only does the backend-independent
// bookkeeping itself; every protocol assumption lives in the
// backend-specific rule sets it dispatches to.
func (c *Checker) Emit(ev obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events++
	c.run = ev.Run
	if ev.At > c.now {
		c.now = ev.At
	}
	if c.passive != nil {
		c.emitPassive(ev)
		return
	}
	c.emitLeader(ev)
}

// emitLeader applies the heartbeat group-management rules I1–I5.
func (c *Checker) emitLeader(ev obs.Event) {
	pos := obsPos{x: ev.Pos.X, y: ev.Pos.Y}

	switch ev.Type {
	case obs.EvMoteFailed:
		c.lastFault[ev.Mote] = ev.At
		delete(c.rearms, ev.Mote)
		for label, recs := range c.leaders {
			if rec, ok := recs[ev.Mote]; ok {
				rec.failed = true
				c.refreshLeaderGone(label, ev.At)
			}
		}

	case obs.EvMoteRestored:
		c.lastFault[ev.Mote] = ev.At
		for label, recs := range c.leaders {
			if rec, ok := recs[ev.Mote]; ok && rec.failed {
				rec.failed = false
				rec.since = ev.At
				c.refreshLeaderGone(label, ev.At)
			}
		}

	case obs.EvLabelCreated, obs.EvLabelTakeover, obs.EvLabelRelinquish:
		c.startLeadership(ev.Mote, ev.Label, ev.At, pos)

	case obs.EvLabelYield, obs.EvLabelDeleted, obs.EvLeaderStepDown:
		c.endLeadership(ev.Mote, ev.Label, ev.At)

	case obs.EvLabelJoined:
		// Joining ends any leadership the mote held (the yield and
		// label-deletion paths emit their own end events first; this is
		// the defensive catch-all) and (re)starts membership.
		for label := range c.leaders {
			c.endLeadership(ev.Mote, label, ev.At)
		}
		c.members[ev.Mote] = &memberRec{label: ev.Label, since: ev.At}
		c.rearms[ev.Mote] = rearmRec{label: ev.Label, at: ev.At}
		c.lastReport[ev.Mote] = rearmRec{label: ev.Label, at: ev.At}

	case obs.EvWaitTimerArmed:
		// rememberLabel is only reached by motes in RoleNone: a silent
		// leave (stop-sensing, non-sensing timeout) has just ended any
		// membership.
		delete(c.members, ev.Mote)
		delete(c.rearms, ev.Mote)
		delete(c.lastReport, ev.Mote)

	case obs.EvHeartbeatSent:
		if rec := c.leaderOf(ev.Mote, ev.Label); rec != nil {
			rec.lastHB = ev.At
		}

	case obs.EvHeartbeatHeard:
		c.onHeard(ev)

	case obs.EvReceiveTimerFired:
		c.checkTakeoverSilence(ev)

	case obs.EvFrameSent:
		if ev.Kind == trace.KindReading {
			c.checkReport(ev)
		}

	case obs.EvDirectoryUpdated:
		if ev.Cause == "register" {
			c.checkDirectory(ev)
		}
	}

	c.checkDualLeaders(ev.At)
}

// Finish runs the end-of-run sweep (a dual-leader overlap or a stale
// active estimator can outlast the final event). at is the run's end
// time.
func (c *Checker) Finish(at time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if at > c.now {
		c.now = at
	}
	if c.passive != nil {
		c.sweepEstimateStale(c.now)
		return
	}
	c.checkDualLeaders(c.now)
}

// Violations returns the proven violations recorded so far.
func (c *Checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	return out
}

// Count returns the total violation count (it keeps incrementing past
// the retention cap).
func (c *Checker) Count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// Events returns how many events the checker has consumed (a smoke
// signal that it was actually attached).
func (c *Checker) Events() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events
}

func (c *Checker) record(v Violation) {
	c.count++
	if len(c.violations) < c.cfg.MaxViolations {
		c.violations = append(c.violations, v)
	}
}

func (c *Checker) leaderOf(mote int, label string) *leaderRec {
	if recs, ok := c.leaders[label]; ok {
		return recs[mote]
	}
	return nil
}

// startLeadership registers mote as a leader of label.
func (c *Checker) startLeadership(mote int, label string, at time.Duration, pos obsPos) {
	delete(c.members, mote)
	delete(c.rearms, mote)
	delete(c.lastReport, mote)
	recs, ok := c.leaders[label]
	if !ok {
		recs = make(map[int]*leaderRec)
		c.leaders[label] = recs
	}
	recs[mote] = &leaderRec{mote: mote, pos: pos, since: at, lastHB: at}
	c.everLed[label] = true
	if len(recs) >= 2 {
		c.multi[label] = true
	}
	c.refreshLeaderGone(label, at)
}

// endLeadership removes mote's leadership of label, if recorded.
func (c *Checker) endLeadership(mote int, label string, at time.Duration) {
	recs, ok := c.leaders[label]
	if !ok {
		return
	}
	if _, ok := recs[mote]; !ok {
		return
	}
	delete(recs, mote)
	if len(recs) < 2 {
		delete(c.multi, label)
	}
	if len(recs) == 0 {
		delete(c.leaders, label)
	}
	c.refreshLeaderGone(label, at)
	// A fresh overlap episode gets a fresh verdict.
	for key := range c.flagged {
		if key.label == label {
			delete(c.flagged, key)
		}
	}
}

// refreshLeaderGone re-derives whether label currently has a live
// (non-failed) leader and stamps/clears the leaderless-since mark.
func (c *Checker) refreshLeaderGone(label string, at time.Duration) {
	if !c.everLed[label] {
		return
	}
	for _, rec := range c.leaders[label] {
		if !rec.failed {
			delete(c.leaderGone, label)
			return
		}
	}
	if _, ok := c.leaderGone[label]; !ok {
		c.leaderGone[label] = at
	}
}

// checkDualLeaders scans labels with >= 2 leader records. A pair is a
// violation only when both motes are live, both have heartbeated the
// label recently (a crashed-and-restored "zombie" leader that never
// heartbeats cannot mislead anyone — members took over long ago), the
// pair is within direct radio range (so the weight-ordered yield rule
// provably applies), and the overlap has outlived the grace window.
func (c *Checker) checkDualLeaders(at time.Duration) {
	if len(c.multi) == 0 {
		return
	}
	activeWin := c.cfg.noticeWindow()
	for label := range c.multi {
		live := c.live[:0]
		for _, rec := range c.leaders[label] {
			if rec.failed {
				continue
			}
			if at-rec.lastHB > activeWin {
				continue
			}
			live = append(live, rec)
		}
		c.live = live
		if len(live) < 2 {
			continue
		}
		for i := 0; i < len(live); i++ {
			for j := i + 1; j < len(live); j++ {
				a, b := live[i], live[j]
				lo, hi := a.mote, b.mote
				if lo > hi {
					lo, hi = hi, lo
				}
				key := pairKey{label: label, a: lo, b: hi}
				if c.flagged[key] {
					continue
				}
				overlap := a.since
				if b.since > overlap {
					overlap = b.since
				}
				severed := false
				for _, w := range c.cfg.Partitions {
					if (a.pos.x < w.X) == (b.pos.x < w.X) {
						continue // same side; this cut never isolates the pair
					}
					if at >= w.At && (w.Until <= w.At || at < w.Until) {
						severed = true
						break
					}
					if w.Until > w.At && at >= w.Until && w.Until > overlap {
						overlap = w.Until // grace restarts at heal
					}
				}
				if severed {
					continue
				}
				if at-overlap < c.cfg.dualLeaderGrace() {
					continue
				}
				if c.cfg.CommRadius > 0 && !a.pos.within(b.pos, c.cfg.CommRadius) {
					continue
				}
				c.flagged[key] = true
				c.record(Violation{
					At: at, Invariant: DualLeader, Label: label, Mote: lo, Peer: hi, Run: c.run,
					Detail: fmt.Sprintf("motes %d and %d both led %q in radio range for %v (grace %v)",
						lo, hi, label, at-overlap, c.cfg.dualLeaderGrace()),
				})
			}
		}
	}
}

// onHeard records receive-timer re-arms from what a mote's manager
// heard. It mirrors the manager's flood dedup, which runs on every
// heartbeat before any role logic: only a strictly newer sequence for
// (label, origin) re-arms, so a duplicated or forwarded copy never shrinks
// the measured silence, even when the first copy came while the mote
// followed another label. A heard heartbeat of a member's own label
// re-arms its timer, and so does a relinquish of that label.
func (c *Checker) onHeard(ev obs.Event) {
	switch ev.Kind {
	case trace.KindHeartbeat:
		key := floodKey{label: ev.Label, origin: ev.Peer}
		seen := c.seen[ev.Mote]
		if seen == nil {
			seen = make(map[floodKey]uint64)
			c.seen[ev.Mote] = seen
		}
		if ev.Seq <= seen[key] {
			return
		}
		seen[key] = ev.Seq
	case trace.KindRelinquish:
	default:
		return
	}
	if mem, ok := c.members[ev.Mote]; ok && ev.Label == mem.label {
		c.rearms[ev.Mote] = rearmRec{label: mem.label, at: ev.At}
	}
}

// checkTakeoverSilence (I2): the receive timer is never shorter than
// ReceiveFactor x heartbeat, so a firing within that window of its last
// re-arm is a bug. Re-arms are dated when the manager heard the frame,
// the same instant the protocol re-armed its timer, and a failure clears
// the record, so no firing is exempt.
func (c *Checker) checkTakeoverSilence(ev obs.Event) {
	r, ok := c.rearms[ev.Mote]
	if !ok || r.label != ev.Label {
		return
	}
	silence := ev.At - r.at
	if silence < c.cfg.minTakeoverSilence() {
		c.record(Violation{
			At: ev.At, Invariant: TakeoverSilence, Label: ev.Label, Mote: ev.Mote, Run: ev.Run,
			Detail: fmt.Sprintf("receive timer fired after %v of label silence (minimum %v)",
				silence, c.cfg.minTakeoverSilence()),
		})
	}
}

// checkReport handles a member report transmission: I3 (reports after
// the label lost its last leader) and I5 (cadence).
func (c *Checker) checkReport(ev obs.Event) {
	mem, ok := c.members[ev.Mote]
	if !ok {
		return
	}
	// I3: the label has been leaderless long past every member's notice
	// window, yet this member still reports. Motes that crashed since the
	// teardown are exempt: a restored "zombie" member has no receive
	// timer until the next heartbeat, which a leaderless label never
	// sends — a protocol wart, not a checker target.
	if gone, ok := c.leaderGone[mem.label]; ok {
		// A mote may legally join a leaderless label *after* the teardown:
		// the non-member wait timer remembers a nearby label for
		// WaitFactor x heartbeat (4.2x, Section 6.2) after its last heard
		// heartbeat, which outlives the leader's departure. Such a joiner's
		// notice clock starts at its own join — its receive timer, armed at
		// the join, still bounds how long it can keep reporting.
		ref := gone
		if mem.since > ref {
			ref = mem.since
		}
		if ev.At-ref > c.cfg.teardownGrace() {
			if fault, faulted := c.lastFault[ev.Mote]; !faulted || fault < ref {
				c.record(Violation{
					At: ev.At, Invariant: ReportAfterTeardown, Label: mem.label, Mote: ev.Mote, Run: ev.Run,
					Detail: fmt.Sprintf("member report %v after label %q lost its last leader (grace %v)",
						ev.At-ref, mem.label, c.cfg.teardownGrace()),
				})
			}
		}
	}
	// I5: gap since the previous report (or the join) of a continuously
	// stable, never-faulted member must not exceed Pe + slack.
	if c.cfg.ReportPeriod > 0 {
		if last, ok := c.lastReport[ev.Mote]; ok && last.label == mem.label && last.at >= mem.since {
			if fault, faulted := c.lastFault[ev.Mote]; !faulted || fault < last.at {
				gap := ev.At - last.at
				if bound := c.cfg.ReportPeriod + c.cfg.cadenceSlack(); gap > bound {
					c.record(Violation{
						At: ev.At, Invariant: ReportCadence, Label: mem.label, Mote: ev.Mote, Run: ev.Run,
						Detail: fmt.Sprintf("report gap %v exceeds Pe+slack %v", gap, bound),
					})
				}
			}
		}
	}
	c.lastReport[ev.Mote] = rearmRec{label: mem.label, at: ev.At}
}

// checkDirectory (I4): a registration for a label that has been
// leaderless for longer than the grace (or that no mote ever led, once
// leadership events have been observed at all) is stale state the
// directory should never accept.
func (c *Checker) checkDirectory(ev obs.Event) {
	if len(c.everLed) == 0 {
		return // no group activity observed; nothing to correlate against
	}
	if !c.everLed[ev.Label] {
		c.record(Violation{
			At: ev.At, Invariant: DirectoryStale, Label: ev.Label, Mote: ev.Mote, Peer: ev.Peer, Run: ev.Run,
			Detail: fmt.Sprintf("directory registration for label %q no mote ever led", ev.Label),
		})
		return
	}
	if gone, ok := c.leaderGone[ev.Label]; ok && ev.At-gone > directoryGrace {
		c.record(Violation{
			At: ev.At, Invariant: DirectoryStale, Label: ev.Label, Mote: ev.Mote, Peer: ev.Peer, Run: ev.Run,
			Detail: fmt.Sprintf("directory registration %v after label %q lost its last leader (grace %v)",
				ev.At-gone, ev.Label, directoryGrace),
		})
	}
}
