// Package passive implements the passive-traces tracking backend, after
// Marculescu et al., "Lightweight Target Tracking Using Passive Traces in
// Sensor Networks": motes that detect the target deposit timestamped
// trace records, gossip recent traces to their one-hop neighborhood, and
// a lightweight estimator interpolates the target position from the trace
// field. There is no leader election and there are no heartbeats — the
// mote running the context's objects (the "estimator") is chosen by a
// purely local rule over the trace field: among motes with a fresh own
// trace, the one closest to the current position estimate takes over
// after a short random backoff, announcing itself with an immediate
// gossip. The role is sticky — gossip frames carry the sender's active
// flag, a fresh foreign active flag suppresses challengers, and a
// lower-id active flag makes one of two concurrent estimators yield
// deterministically — so the estimator persists for about half a sensing
// window instead of flapping with every trace arrival. The backend emits
// the same report-lifecycle (radio.Corr) and label-lifecycle events as
// the leader backend, so obs, ettrace, the metrics registry, and the
// coherence ledger work unchanged.
//
// Timing derives from the shared group.Config and group's timer factors,
// so scenarios tune both backends consistently: traces are deposited every
// HeartbeatPeriod (jittered like heartbeats), a trace is an
// estimator-election candidate while younger than group.ReceiveFactor x
// HeartbeatPeriod, and the whole trace field goes stale — forcing the
// estimator to step down — after group.WaitFactor x HeartbeatPeriod.
package passive

import (
	"fmt"
	"sort"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/group"
	"envirotrack/internal/mote"
	"envirotrack/internal/obs"
	"envirotrack/internal/radio"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
	"envirotrack/internal/track"
)

func init() {
	track.Register(track.BackendPassive, New)
}

// TraceBits is the on-air size of one trace record inside a gossip frame
// (mote id, position, timestamp, sequence).
const TraceBits = 16 * 8

// gossipFanout caps how many recent traces one gossip frame carries.
const gossipFanout = 8

// Rec is one deposited trace record as carried in gossip frames.
type Rec struct {
	Mote radio.NodeID
	Pos  geom.Point
	At   time.Duration
	Seq  uint64
}

// Gossip is the backend's only frame payload: the sender's recent view of
// the trace field for one context label.
type Gossip struct {
	CtxType string
	Label   group.Label
	From    radio.NodeID
	Active  bool   // sender is currently the estimator
	State   []byte // label persistent state, piggybacked like heartbeat state
	Traces  []Rec
}

// Backend is the per-mote passive-traces protocol instance.
type Backend struct {
	m       *mote.Mote
	ctxType string
	cfg     group.Config
	cb      track.Callbacks
	ledger  *trace.Ledger

	sensing bool
	label   group.Label
	minted  bool // label was minted by this mote (for deletion accounting)
	active  bool
	// creationActivation marks the next activation as the minting one, so
	// it records LabelCreated alone rather than a takeover.
	creationActivation bool
	labelSeq           int
	state              []byte

	traces []Rec // latest record per mote, sorted by mote id
	est    *Estimator

	// lastActiveAt is when gossip last carried another mote's active
	// flag; a fresh foreign flag suppresses activation (stickiness).
	lastActiveAt   time.Duration
	haveActivePeer bool

	depositTimer  simtime.Timer
	creationTimer simtime.Timer
	staleTimer    simtime.Timer
	takeoverTimer simtime.Timer
	stopped       bool

	depositFire  simtime.Callback
	creationFire simtime.Callback
	staleFire    simtime.Callback
	takeoverFire simtime.Callback

	// scratch is the gossip-assembly buffer, reused across deposits.
	scratch []Rec
}

// New constructs the passive backend (registered under "passive").
func New(d track.Deps) track.Backend {
	cfg := d.Group.WithDefaults()
	b := &Backend{
		m:       d.Mote,
		ctxType: d.CtxType,
		cfg:     cfg,
		cb:      d.Callbacks,
		ledger:  d.Ledger,
		est:     NewEstimator(staleness(cfg)),
	}
	b.depositFire = func() {
		if b.stopped {
			return
		}
		if !b.m.Failed() && b.sensing && b.label != "" {
			b.deposit()
		}
		// Keep the chain alive through failures so a restored mote resumes
		// depositing; it dies only when sensing stops or the backend stops.
		if b.sensing {
			b.scheduleNextDeposit()
		}
	}
	b.creationFire = func() {
		if b.stopped || b.m.Failed() || !b.sensing {
			return
		}
		if b.label == "" {
			b.mintLabel()
		}
		b.startDepositing()
	}
	b.staleFire = func() {
		if b.stopped {
			return
		}
		b.reevaluate()
		if b.active {
			b.armStaleTimer()
		}
	}
	b.takeoverFire = func() {
		if b.stopped {
			return
		}
		// Re-check eligibility at fire time: a fresh foreign active flag
		// (another candidate won the race backoff) or an aged-out own
		// trace calls the takeover off.
		now := b.m.Scheduler().Now()
		b.evictStale(now)
		if b.eligible(now) {
			b.activate()
			b.announce()
		}
	}
	d.Mote.AddFrameHandler(b.handleFrame)
	return b
}

// depositPeriod is how often a sensing mote deposits (and gossips) a trace.
func depositPeriod(c group.Config) time.Duration { return c.HeartbeatPeriod }

// freshSlack is the estimator-election candidacy window: a mote competes
// while its own newest trace is at most this old.
func freshSlack(c group.Config) time.Duration {
	return time.Duration(float64(c.HeartbeatPeriod) * group.ReceiveFactor)
}

// staleness is the trace-field staleness bound: traces older than this are
// evicted, and an estimator whose whole view is older must step down.
func staleness(c group.Config) time.Duration {
	return time.Duration(float64(c.HeartbeatPeriod) * group.WaitFactor)
}

// --- track.Backend ---

// SetSensing informs the backend of the mote's sensee() evaluation and
// mirrors it into the mote's HotState sensing bit, as track.Backend
// requires.
func (b *Backend) SetSensing(sensing bool) {
	if b.m.Failed() || sensing == b.sensing {
		return
	}
	b.sensing = sensing
	if h, i := b.m.Hot(); h != nil {
		h.SetSensing(i, b.ctxType, sensing)
	}
	if sensing {
		b.onStartSensing()
	} else {
		b.onStopSensing()
	}
}

// Sensing returns the last sensing state supplied via SetSensing.
func (b *Backend) Sensing() bool { return b.sensing }

// Label returns the context label this mote currently knows for the type.
func (b *Backend) Label() group.Label {
	if !b.Participating() {
		return ""
	}
	return b.label
}

// Participating reports whether the mote takes part in the protocol: it
// is depositing traces for a label (sensing) or still active as the
// estimator.
func (b *Backend) Participating() bool {
	return b.label != "" && (b.sensing || b.active)
}

// SetState stores label state; only the active estimator's state is
// gossiped authoritatively.
func (b *Backend) SetState(state []byte) {
	if !b.active {
		return
	}
	b.state = append([]byte(nil), state...)
}

// State returns the label persistent state as known by this mote.
func (b *Backend) State() []byte { return b.state }

// Stop tears down all timers and silences the backend.
func (b *Backend) Stop() {
	b.stopped = true
	b.stopTimer(&b.depositTimer)
	b.stopTimer(&b.creationTimer)
	b.stopTimer(&b.staleTimer)
	b.stopTimer(&b.takeoverTimer)
}

// Estimate interpolates the target position from this mote's view of the
// trace field (diagnostics and tests).
func (b *Backend) Estimate(now time.Duration) (geom.Point, bool) {
	return b.est.Estimate(now)
}

// --- sensing transitions ---

func (b *Backend) onStartSensing() {
	// Forget a fully evaporated label: with no live trace and no active
	// episode the old label identity is stale memory, and a new detection
	// is a new entity (the group protocol's expired wait timer).
	b.evictStale(b.m.Scheduler().Now())
	if b.label != "" && len(b.traces) == 0 && !b.active {
		b.label = ""
		b.minted = false
		b.creationActivation = false
	}
	if h, i := b.m.Hot(); h != nil {
		h.SetMember(i, b.ctxType, b.label != "")
	}
	if b.label != "" {
		// A label is already known (gossip memory or a previous episode):
		// start depositing immediately.
		b.startDepositing()
		return
	}
	// No label known: back off briefly in case gossip is in flight, then
	// mint one (the group protocol's creation backoff, same RNG shape).
	if b.creationTimer.Pending() {
		return
	}
	backoff := time.Duration(b.m.Rand().Float64() * float64(b.cfg.CreationBackoff))
	b.creationTimer = b.m.Scheduler().AfterOwned(backoff, simtime.OwnerGroup, b.creationFire)
}

func (b *Backend) onStopSensing() {
	b.stopTimer(&b.depositTimer)
	b.stopTimer(&b.creationTimer)
	b.stopTimer(&b.takeoverTimer)
	if h, i := b.m.Hot(); h != nil {
		h.SetMember(i, b.ctxType, false)
	}
	if b.active {
		b.deactivate()
	}
}

// --- depositing and gossip ---

func (b *Backend) mintLabel() {
	b.labelSeq++
	b.label = group.Label(fmt.Sprintf("%s/%d.%d", b.ctxType, b.m.ID(), b.labelSeq))
	b.minted = true
	b.creationActivation = true
	b.recordEvent(trace.LabelCreated, b.label)
}

func (b *Backend) startDepositing() {
	if h, i := b.m.Hot(); h != nil {
		h.SetMember(i, b.ctxType, true)
	}
	if b.depositTimer.Pending() {
		return
	}
	// First trace immediately (detection latency), then jittered periodic.
	b.deposit()
	b.scheduleNextDeposit()
}

func (b *Backend) scheduleNextDeposit() {
	jitter := 1 + group.JitterFrac*(b.m.Rand().Float64()-0.5)
	d := time.Duration(float64(depositPeriod(b.cfg)) * jitter)
	b.depositTimer = b.m.Scheduler().AfterOwned(d, simtime.OwnerGroup, b.depositFire)
}

// deposit records a fresh own trace and gossips the recent trace field.
func (b *Backend) deposit() {
	now := b.m.Scheduler().Now()
	corr := radio.Corr{Origin: int32(b.m.ID()), Seq: b.m.NextCorrSeq()}
	rec := Rec{Mote: b.m.ID(), Pos: b.m.Pos(), At: now, Seq: uint64(corr.Seq)}
	b.integrate(rec)

	traces := b.recentTraces(now)
	bits := group.HeartbeatBits + len(traces)*TraceBits + len(b.state)*8
	b.emitCorr(obs.EvReportSent, radio.Broadcast, corr, "")
	b.m.BroadcastTraced(trace.KindTrace, bits, Gossip{
		CtxType: b.ctxType,
		Label:   b.label,
		From:    b.m.ID(),
		Active:  b.active,
		State:   b.state,
		Traces:  traces,
	}, corr)
	b.reevaluate()
	if b.active {
		b.armStaleTimer()
	}
}

// recentTraces assembles the gossip payload: the freshest records in the
// live window, newest first (ties by mote id), own record always included.
func (b *Backend) recentTraces(now time.Duration) []Rec {
	horizon := now - staleness(b.cfg)
	b.scratch = b.scratch[:0]
	for _, r := range b.traces {
		if r.At >= horizon {
			b.scratch = append(b.scratch, r)
		}
	}
	sort.Slice(b.scratch, func(i, j int) bool {
		if b.scratch[i].At != b.scratch[j].At {
			return b.scratch[i].At > b.scratch[j].At
		}
		return b.scratch[i].Mote < b.scratch[j].Mote
	})
	n := len(b.scratch)
	if n > gossipFanout {
		n = gossipFanout
	}
	out := make([]Rec, n)
	copy(out, b.scratch[:n])
	return out
}

// integrate merges one trace record into the local field; returns true
// when the record was new (fresher than the known record for its mote).
func (b *Backend) integrate(rec Rec) bool {
	i := sort.Search(len(b.traces), func(i int) bool { return b.traces[i].Mote >= rec.Mote })
	if i < len(b.traces) && b.traces[i].Mote == rec.Mote {
		if rec.Seq <= b.traces[i].Seq {
			return false
		}
		b.traces[i] = rec
	} else {
		b.traces = append(b.traces, Rec{})
		copy(b.traces[i+1:], b.traces[i:])
		b.traces[i] = rec
	}
	b.est.Add(Point{At: rec.At, Pos: rec.Pos})
	if b.active && b.cb.OnReport != nil && rec.Mote != b.m.ID() {
		b.cb.OnReport(rec.Mote, track.TraceSample{MoteID: rec.Mote, Pos: rec.Pos, At: rec.At})
	}
	return true
}

// --- frames ---

func (b *Backend) handleFrame(f radio.Frame) bool {
	g, ok := f.Payload.(Gossip)
	if !ok || g.CtxType != b.ctxType {
		return false
	}
	b.onGossip(g, f.Corr)
	return true
}

func (b *Backend) onGossip(g Gossip, corr radio.Corr) {
	if b.stopped {
		return
	}
	b.adoptLabel(g.Label)
	if g.State != nil && (g.Active || b.state == nil) {
		b.state = g.State
	}
	if g.Active && g.From != b.m.ID() {
		b.lastActiveAt = b.m.Scheduler().Now()
		b.haveActivePeer = true
		if b.active && g.From < b.m.ID() {
			// Concurrent estimators converge by id: the higher yields.
			b.deactivate()
		}
	}
	fresh := 0
	for _, rec := range g.Traces {
		if b.integrate(rec) {
			fresh++
		}
	}
	// Close the gossip span: delivered when it taught us anything, dropped
	// as stale otherwise (the passive analogue of "stale_leader").
	if corr.Seq != 0 {
		if fresh > 0 {
			b.emitCorr(obs.EvRouteDelivered, g.From, corr, "")
		} else {
			b.emitCorr(obs.EvRouteDropped, g.From, corr, "stale_trace")
		}
	}
	// Gossip while sensing but before the creation backoff fired: the
	// label exists, start depositing against it right away.
	if b.sensing && !b.depositTimer.Pending() && b.label != "" && !b.m.Failed() {
		b.stopTimer(&b.creationTimer)
		b.startDepositing()
		return // startDepositing deposited, which reevaluated
	}
	b.reevaluate()
}

// adoptLabel merges label identities deterministically: the
// lexicographically smallest label of the type wins globally, so
// concurrently minted labels converge without any election.
func (b *Backend) adoptLabel(label group.Label) {
	if label == "" {
		return
	}
	if b.label == "" {
		b.label = label
		b.minted = false
		if b.sensing {
			b.emit(obs.EvLabelJoined, label, radio.Broadcast, 0)
		}
		return
	}
	if label >= b.label {
		return
	}
	old := b.label
	wasActive := b.active
	if wasActive {
		b.deactivate()
	}
	if b.minted {
		// Our minted label lost the merge: delete it, mirroring the group
		// protocol's weight-based spurious-label suppression.
		b.recordEvent(trace.LabelDeleted, old)
		if b.cb.OnLabelDeleted != nil {
			b.cb.OnLabelDeleted(old)
		}
	}
	b.label = label
	b.minted = false
	b.creationActivation = false
	if b.sensing {
		b.emit(obs.EvLabelJoined, label, radio.Broadcast, 0)
	}
}

// --- estimator election ---

// reevaluate applies the local estimator-election rule. An active
// estimator keeps the role while its own trace stays fresh (the role is
// sticky; only a lower-id active flag makes it yield, in onGossip). An
// inactive mote that finds itself eligible — own trace fresh, best-placed
// candidate, no fresh foreign active flag — does not activate on the
// spot: it arms a short random takeover backoff (the group protocol's
// creation-backoff shape) and re-checks at fire time. The backoff breaks
// the race that otherwise erupts when an estimator steps down and every
// candidate hears about it in the same gossip frame; the first backoff to
// fire activates and announces immediately, and its active flag calls
// the other candidates' takeovers off. The minting mote is the one
// exception: it activates synchronously, since by construction it minted
// because no gossip reached it — there is no one to race.
func (b *Backend) reevaluate() {
	now := b.m.Scheduler().Now()
	b.evictStale(now)

	if b.active {
		ownOK := b.sensing && b.label != "" && !b.m.Failed() && b.ownFresh(now)
		if !ownOK {
			b.deactivate()
		}
		return
	}
	if b.creationActivation && b.sensing && b.label != "" && !b.m.Failed() {
		b.activate()
		return
	}
	if b.eligible(now) {
		b.armTakeoverTimer()
	} else {
		b.stopTimer(&b.takeoverTimer)
	}
}

// ownFresh reports whether this mote's own trace is inside the
// estimator-candidacy window.
func (b *Backend) ownFresh(now time.Duration) bool {
	slackHorizon := now - freshSlack(b.cfg)
	for _, r := range b.traces {
		if r.Mote == b.m.ID() {
			return r.At >= slackHorizon
		}
	}
	return false
}

// eligible is the inactive-candidate condition: sensing against a label,
// own trace fresh, best-placed by the election metric, and no foreign
// active flag heard within the candidacy window. Electing the fresh
// trace closest to the position estimate rather than, say, the lowest id
// matters for report continuity: the lowest fresh id is the trailing
// edge of a moving target's sensing region, a mote about to lose its own
// trace, while the closest mote keeps the role for about half a sensing
// window.
func (b *Backend) eligible(now time.Duration) bool {
	if b.active || !b.sensing || b.label == "" || b.m.Failed() {
		return false
	}
	if b.haveActivePeer && now-b.lastActiveAt <= freshSlack(b.cfg) {
		return false
	}
	return b.ownFresh(now) && b.bestCandidate(now) == b.m.ID()
}

// armTakeoverTimer schedules the takeover re-check after a fresh random
// backoff; a pending backoff is left to run (re-arming on every gossip
// would push the fire time around and re-randomize the race).
func (b *Backend) armTakeoverTimer() {
	if b.takeoverTimer.Pending() {
		return
	}
	d := time.Duration(b.m.Rand().Float64() * float64(b.cfg.CreationBackoff))
	b.takeoverTimer = b.m.Scheduler().AfterOwned(d, simtime.OwnerGroup, b.takeoverFire)
}

// announce deposits (and therefore gossips) immediately after a
// takeover, so the new estimator's active flag reaches the other
// candidates before their own backoffs fire, instead of waiting out the
// rest of the jittered deposit period.
func (b *Backend) announce() {
	if b.m.Failed() || !b.sensing || b.label == "" {
		return
	}
	b.deposit()
}

// bestCandidate returns the fresh trace closest to the current position
// estimate (ties to the lower mote id), or -1 with no fresh traces. The
// estimate falls back to the freshest candidates' centroid implicitly:
// Estimate always returns a point once any trace is live.
func (b *Backend) bestCandidate(now time.Duration) radio.NodeID {
	target, ok := b.est.Estimate(now)
	if !ok {
		return -1
	}
	slackHorizon := now - freshSlack(b.cfg)
	best := radio.NodeID(-1)
	bestDist := 0.0
	for _, r := range b.traces {
		if r.At < slackHorizon {
			continue
		}
		d := r.Pos.Dist(target)
		if best < 0 || d < bestDist || (d == bestDist && r.Mote < best) {
			best = r.Mote
			bestDist = d
		}
	}
	return best
}

// evictStale drops trace records past the staleness bound.
func (b *Backend) evictStale(now time.Duration) {
	horizon := now - staleness(b.cfg)
	keep := b.traces[:0]
	for _, r := range b.traces {
		if r.At >= horizon {
			keep = append(keep, r)
		}
	}
	b.traces = keep
	b.est.Evict(now)
}

func (b *Backend) activate() {
	b.active = true
	b.stopTimer(&b.takeoverTimer)
	if b.creationActivation {
		// The minting activation: LabelCreated was already recorded.
		b.creationActivation = false
	} else {
		// The estimator role moved here: a successful handover.
		b.recordEvent(trace.LabelTakeover, b.label)
	}
	if b.cb.OnActivate != nil {
		b.cb.OnActivate(b.label, b.state)
	}
	// Replay the live trace field into the freshly built aggregation
	// windows, in deterministic mote-id order.
	if b.cb.OnReport != nil {
		for _, r := range b.traces {
			if r.Mote == b.m.ID() {
				continue
			}
			b.cb.OnReport(r.Mote, track.TraceSample{MoteID: r.Mote, Pos: r.Pos, At: r.At})
		}
	}
	b.armStaleTimer()
}

func (b *Backend) deactivate() {
	label := b.label
	b.active = false
	b.stopTimer(&b.staleTimer)
	b.emit(obs.EvLeaderStepDown, label, radio.Broadcast, 0)
	if b.cb.OnDeactivate != nil {
		b.cb.OnDeactivate(label)
	}
}

// armStaleTimer schedules the estimate-staleness check: if the whole
// trace field ages past the staleness bound, the estimator steps down.
func (b *Backend) armStaleTimer() {
	b.stopTimer(&b.staleTimer)
	b.staleTimer = b.m.Scheduler().AfterOwned(staleness(b.cfg), simtime.OwnerGroup, b.staleFire)
}

// --- bookkeeping ---

func (b *Backend) stopTimer(t *simtime.Timer) {
	t.Stop()
	*t = simtime.Timer{}
}

func (b *Backend) recordEvent(ty trace.LabelEventType, label group.Label) {
	if ev, ok := obs.LabelEvent(ty); ok {
		b.emit(ev, label, radio.Broadcast, 0)
	}
	if b.ledger == nil {
		return
	}
	b.ledger.Record(trace.LabelEvent{
		At:      b.m.Scheduler().Now(),
		Type:    ty,
		Label:   string(label),
		CtxType: b.ctxType,
		Mote:    int(b.m.ID()),
	})
}

// emitCorr publishes one report-lifecycle event for a gossip frame,
// carrying its correlation key for span assembly and invariant checking.
func (b *Backend) emitCorr(ev obs.EventType, peer radio.NodeID, corr radio.Corr, cause string) {
	if bus := b.m.Obs(); bus.Active() {
		bus.Emit(obs.Event{
			At:      b.m.Scheduler().Now(),
			Type:    ev,
			Mote:    int(b.m.ID()),
			Peer:    int(peer),
			CtxType: b.ctxType,
			Pos:     b.m.Pos(),
			Kind:    trace.KindTrace,
			Cause:   cause,
			Label:   string(b.label),
			Origin:  int(corr.Origin),
			Seq:     uint64(corr.Seq),
		})
	}
}

func (b *Backend) emit(ev obs.EventType, label group.Label, peer radio.NodeID, seq uint64) {
	if bus := b.m.Obs(); bus.Active() {
		bus.Emit(obs.Event{
			At:      b.m.Scheduler().Now(),
			Type:    ev,
			Mote:    int(b.m.ID()),
			Peer:    int(peer),
			Label:   string(label),
			CtxType: b.ctxType,
			Pos:     b.m.Pos(),
			Seq:     seq,
		})
	}
}
