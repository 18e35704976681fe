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
//
// The backend embeds the group protocol's per-mote plumbing (group.Base):
// it drives the same group.Runtime and records label events the same way.
// Its trace field, estimator, gossip memory and timers live in one trace
// record, made when the mote first senses or hears gossip, so the many
// motes that never take part carry none of it. track.Lookup returns its
// constructor for the name "passive".
package passive

import (
	"math"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/group"
	"envirotrack/internal/mote"
	"envirotrack/internal/obs"
	"envirotrack/internal/radio"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

// TraceBits is the on-air size of one trace record inside a gossip frame
// (mote id, position, timestamp, sequence).
const TraceBits = 16 * 8

// gossipFanout caps how many recent traces one gossip frame carries.
const gossipFanout = 8

// Rec is one deposited trace record as carried in gossip frames. The
// active estimator hands each remote record to Runtime.OnReport as a
// *Rec into its trace field, valid for that call only.
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

// Backend is the per-mote passive-traces protocol instance. A mote that
// never senses and never hears gossip holds only its label, its flags
// and a nil trace record.
type Backend struct {
	group.Base

	label  group.Label
	minted bool // label was minted by this mote (for deletion accounting)
	active bool
	// creationActivation marks the next activation as the minting one, so
	// it records LabelCreated alone rather than a takeover.
	creationActivation bool
	stopped            bool // set by Stop; every timer and frame is ignored

	// ts is the state of a mote that takes part in the protocol, made on
	// first use (see traceRec) and kept for the mote's lifetime; nil
	// means nothing remembered.
	ts *traceState
}

// traceState is what the protocol remembers on a mote that has sensed or
// heard gossip: its trace field, estimator, gossip memory and timers.
// Motes far from every target never get one, and a mote that keeps
// changing state reuses its own.
type traceState struct {
	traces []Rec // latest record per mote, sorted by mote id
	// tracesFloor is at most the oldest At in traces: evictStale skips
	// its scan while the horizon has not passed it.
	tracesFloor time.Duration
	est         Estimator

	state []byte
	// haveActivePeer is set once gossip has carried another mote's
	// active flag, last at lastActiveAt; a fresh foreign flag suppresses
	// activation (stickiness).
	haveActivePeer bool
	lastActiveAt   time.Duration

	depositTimer  simtime.Timer
	staleTimer    simtime.Timer
	takeoverTimer simtime.Timer
}

// New constructs the passive backend for context type t on mote m. The
// protocol periods derive from t.Config, the same timing the group
// protocol reads; label events go to the ledger of the mote's env.
func New(m *mote.Mote, t *group.Type, rt group.Runtime) *Backend {
	return &Backend{Base: group.NewBase(m, t, rt)}
}

// traceRec returns the mote's trace record, making it on first use: the
// first gossip heard or the first sensing episode.
func (b *Backend) traceRec() *traceState {
	if b.ts == nil {
		b.ts = &traceState{est: Estimator{window: staleness(b.Config)}}
	}
	return b.ts
}

// depositFire deposits the next periodic trace.
func depositFire(arg any) {
	b := arg.(*Backend)
	if b.stopped {
		return
	}
	if !b.Mote.Failed() && b.Sensing() && b.label != "" {
		b.deposit()
	}
	// Keep the chain alive through failures so a restored mote resumes
	// depositing; it dies only when sensing stops or the backend stops.
	if b.Sensing() {
		b.scheduleNextDeposit()
	}
}

// creationFire ends the label-creation backoff.
func creationFire(arg any) {
	b := arg.(*Backend)
	if b.stopped || b.Mote.Failed() || !b.Sensing() {
		return
	}
	if b.label == "" {
		b.mintLabel()
	}
	b.startDepositing()
}

// staleFire is the active estimator's trace-field staleness check.
func staleFire(arg any) {
	b := arg.(*Backend)
	if b.stopped {
		return
	}
	b.reevaluate()
	if b.active {
		b.armStaleTimer()
	}
}

// takeoverFire ends a candidate's takeover backoff.
func takeoverFire(arg any) {
	b := arg.(*Backend)
	if b.stopped {
		return
	}
	// Re-check eligibility at fire time: a fresh foreign active flag
	// (another candidate won the race backoff) or an aged-out own trace
	// calls the takeover off.
	now := b.Mote.Scheduler().Now()
	b.evictStale(now)
	if b.eligible(now) {
		b.activate()
		b.announce()
	}
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
// stores it as the mote's HotState sensing bit, as track.Backend requires.
func (b *Backend) SetSensing(sensing bool) {
	if !b.WriteSensing(sensing) {
		return
	}
	if sensing {
		b.onStartSensing()
	} else {
		b.onStopSensing()
	}
}

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
	return b.label != "" && (b.Sensing() || b.active)
}

// SetState stores label state; only the active estimator's state is
// gossiped authoritatively.
func (b *Backend) SetState(state []byte) {
	if !b.active {
		return
	}
	b.ts.state = append([]byte(nil), state...)
}

// State returns the label persistent state as known by this mote.
func (b *Backend) State() []byte {
	if b.ts == nil {
		return nil
	}
	return b.ts.state
}

// Stop tears down all timers and silences the backend.
func (b *Backend) Stop() {
	b.stopped = true
	b.CreationTimer.Stop()
	if ts := b.ts; ts != nil {
		ts.depositTimer.Stop()
		ts.staleTimer.Stop()
		ts.takeoverTimer.Stop()
	}
}

// --- sensing transitions ---

func (b *Backend) onStartSensing() {
	// Forget a fully evaporated label: with no live trace and no active
	// episode the old label identity is stale memory, and a new detection
	// is a new entity (the group protocol's expired wait timer).
	ts := b.traceRec()
	b.evictStale(b.Mote.Scheduler().Now())
	if b.label != "" && len(ts.traces) == 0 && !b.active {
		b.label = ""
		b.minted = false
		b.creationActivation = false
	}
	b.SetMember(b.label != "")
	if b.label != "" {
		// A label is already known (gossip memory or a previous episode):
		// start depositing immediately.
		b.startDepositing()
		return
	}
	// No label known: back off briefly in case gossip is in flight, then
	// mint one (the group protocol's creation backoff).
	b.ArmBackoff(&b.CreationTimer, creationFire, b)
}

func (b *Backend) onStopSensing() {
	b.CreationTimer.Stop()
	if ts := b.ts; ts != nil {
		ts.depositTimer.Stop()
		ts.takeoverTimer.Stop()
	}
	b.SetMember(false)
	if b.active {
		b.deactivate()
	}
}

// --- depositing and gossip ---

func (b *Backend) mintLabel() {
	b.label = b.MintLabel()
	b.minted = true
	b.creationActivation = true
}

func (b *Backend) startDepositing() {
	b.SetMember(true)
	if b.ts.depositTimer.Pending() {
		return
	}
	// First trace immediately (detection latency), then jittered periodic.
	b.deposit()
	b.scheduleNextDeposit()
}

func (b *Backend) scheduleNextDeposit() {
	jitter := 1 + group.JitterFrac*(b.Mote.Draw()-0.5)
	d := time.Duration(float64(depositPeriod(b.Config)) * jitter)
	b.ts.depositTimer = b.Mote.Scheduler().AfterEventTimerOwned(d, simtime.OwnerGroup, depositFire, b)
}

// deposit records a fresh own trace and gossips the recent trace field.
func (b *Backend) deposit() {
	now := b.Mote.Scheduler().Now()
	corr := radio.Corr{Origin: int32(b.Mote.ID()), Seq: b.Mote.NextCorrSeq()}
	rec := Rec{Mote: b.Mote.ID(), Pos: b.Mote.Pos(), At: now, Seq: uint64(corr.Seq)}
	b.integrate(rec)

	traces := b.recentTraces(now)
	state := b.ts.state
	bits := group.HeartbeatBits + len(traces)*TraceBits + len(state)*8
	b.EmitCorr(obs.EvReportSent, trace.KindTrace, radio.Broadcast, b.label, corr, "")
	b.Mote.BroadcastTraced(trace.KindTrace, bits, Gossip{
		CtxType: b.Name,
		Label:   b.label,
		From:    b.Mote.ID(),
		Active:  b.active,
		State:   state,
		Traces:  traces,
	}, corr)
	b.reevaluate()
	if b.active {
		b.armStaleTimer()
	}
}

// recentTraces assembles the gossip payload: the gossipFanout freshest
// records in the live window, newest first (ties by mote id), own record
// always included. Mote ids are unique in the field, so the order is
// total and the selection below yields what a full sort would.
func (b *Backend) recentTraces(now time.Duration) []Rec {
	horizon := now - staleness(b.Config)
	var top [gossipFanout]Rec
	n := 0
	for _, r := range b.ts.traces {
		if r.At < horizon || (n == gossipFanout && !newer(r, top[n-1])) {
			continue
		}
		if n < gossipFanout {
			n++
		}
		// Insert r into top[:n], dropping the oldest when full.
		j := n - 1
		for ; j > 0 && newer(r, top[j-1]); j-- {
			top[j] = top[j-1]
		}
		top[j] = r
	}
	out := make([]Rec, n)
	copy(out, top[:n])
	return out
}

// newer is the gossip payload order: later At first, ties to the lower
// mote id.
func newer(a, b Rec) bool {
	return a.At > b.At || (a.At == b.At && a.Mote < b.Mote)
}

// findRec returns the index of mote id's record in the id-sorted traces,
// or where it would be inserted. The field holds about a dozen records,
// where a linear scan beats a binary search.
func findRec(traces []Rec, id radio.NodeID) int {
	for i := range traces {
		if traces[i].Mote >= id {
			return i
		}
	}
	return len(traces)
}

// integrate merges one trace record into the local field; returns true
// when the record was new (fresher than the known record for its mote).
func (b *Backend) integrate(rec Rec) bool {
	ts := b.ts
	i := findRec(ts.traces, rec.Mote)
	if i < len(ts.traces) && ts.traces[i].Mote == rec.Mote {
		if rec.Seq <= ts.traces[i].Seq {
			return false
		}
		ts.traces[i] = rec
	} else {
		ts.traces = append(ts.traces, Rec{})
		copy(ts.traces[i+1:], ts.traces[i:])
		ts.traces[i] = rec
	}
	ts.tracesFloor = min(ts.tracesFloor, rec.At)
	ts.est.Add(Point{At: rec.At, Pos: rec.Pos})
	if b.active && rec.Mote != b.Mote.ID() {
		b.Runtime.OnReport(rec.Mote, &ts.traces[i])
	}
	return true
}

// --- frames ---

// HandleFrame consumes a gossip frame of the backend's context type and
// returns false for any other frame.
func (b *Backend) HandleFrame(f radio.Frame) bool {
	g, ok := f.Payload.(Gossip)
	if !ok || g.CtxType != b.Name {
		return false
	}
	b.onGossip(g, f.Corr)
	return true
}

func (b *Backend) onGossip(g Gossip, corr radio.Corr) {
	if b.stopped {
		return
	}
	ts := b.traceRec()
	b.adoptLabel(g.Label)
	if g.State != nil && (g.Active || ts.state == nil) {
		ts.state = g.State
	}
	if g.Active && g.From != b.Mote.ID() {
		ts.lastActiveAt = b.Mote.Scheduler().Now()
		ts.haveActivePeer = true
		if b.active && g.From < b.Mote.ID() {
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
			b.EmitCorr(obs.EvRouteDelivered, trace.KindTrace, g.From, b.label, corr, "")
		} else {
			b.EmitCorr(obs.EvRouteDropped, trace.KindTrace, g.From, b.label, corr, "stale_trace")
		}
	}
	// Gossip while sensing but before the creation backoff fired: the
	// label exists, start depositing against it right away.
	if b.Sensing() && !ts.depositTimer.Pending() && b.label != "" && !b.Mote.Failed() {
		b.CreationTimer.Stop()
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
		if b.Sensing() {
			b.Emit(obs.EvLabelJoined, label, radio.Broadcast, 0)
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
		b.RecordEvent(trace.LabelDeleted, old)
		b.Runtime.OnLabelDeleted(old)
	}
	b.label = label
	b.minted = false
	b.creationActivation = false
	if b.Sensing() {
		b.Emit(obs.EvLabelJoined, label, radio.Broadcast, 0)
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
	now := b.Mote.Scheduler().Now()
	b.evictStale(now)

	if b.active {
		ownOK := b.Sensing() && b.label != "" && !b.Mote.Failed() && b.ownFresh(now)
		if !ownOK {
			b.deactivate()
		}
		return
	}
	if b.creationActivation && b.Sensing() && b.label != "" && !b.Mote.Failed() {
		b.activate()
		return
	}
	// A pending backoff is left to run: re-arming on every gossip would
	// push the fire time around and re-randomize the race.
	if b.eligible(now) {
		b.ArmBackoff(&b.ts.takeoverTimer, takeoverFire, b)
	} else {
		b.ts.takeoverTimer.Stop()
	}
}

// ownFresh reports whether this mote's own trace is inside the
// estimator-candidacy window.
func (b *Backend) ownFresh(now time.Duration) bool {
	id := b.Mote.ID()
	traces := b.ts.traces
	i := findRec(traces, id)
	return i < len(traces) && traces[i].Mote == id && traces[i].At >= now-freshSlack(b.Config)
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
	if b.active || !b.Sensing() || b.label == "" || b.Mote.Failed() {
		return false
	}
	if ts := b.ts; ts.haveActivePeer && now-ts.lastActiveAt <= freshSlack(b.Config) {
		return false
	}
	return b.ownFresh(now) && b.bestCandidate(now) == b.Mote.ID()
}

// announce deposits (and therefore gossips) immediately after a
// takeover, so the new estimator's active flag reaches the other
// candidates before their own backoffs fire, instead of waiting out the
// rest of the jittered deposit period.
func (b *Backend) announce() {
	if b.Mote.Failed() || !b.Sensing() || b.label == "" {
		return
	}
	b.deposit()
}

// bestCandidate returns the fresh trace closest to the current position
// estimate (ties to the lower mote id), or -1 with no fresh traces. The
// estimate falls back to the freshest candidates' centroid implicitly:
// Estimate always returns a point once any trace is live.
func (b *Backend) bestCandidate(now time.Duration) radio.NodeID {
	target, ok := b.ts.est.Estimate(now)
	if !ok {
		return -1
	}
	slackHorizon := now - freshSlack(b.Config)
	best := radio.NodeID(-1)
	bestDist := 0.0
	for _, r := range b.ts.traces {
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

// evictStale drops trace records past the staleness bound. It scans the
// field only once the horizon passes tracesFloor, moves records only
// from the first stale one on, and leaves tracesFloor exact. A mote with
// no trace record has nothing to drop.
func (b *Backend) evictStale(now time.Duration) {
	ts := b.ts
	if ts == nil {
		return
	}
	if horizon := now - staleness(b.Config); ts.tracesFloor < horizon {
		floor := time.Duration(math.MaxInt64)
		n := 0
		for i, r := range ts.traces {
			if r.At < horizon {
				continue
			}
			if n < i {
				ts.traces[n] = r
			}
			n++
			floor = min(floor, r.At)
		}
		ts.traces, ts.tracesFloor = ts.traces[:n], floor
	}
	ts.est.Evict(now)
}

func (b *Backend) activate() {
	ts := b.ts
	b.active = true
	ts.takeoverTimer.Stop()
	if b.creationActivation {
		// The minting activation: LabelCreated was already recorded.
		b.creationActivation = false
	} else {
		// The estimator role moved here: a successful handover.
		b.RecordEvent(trace.LabelTakeover, b.label)
	}
	b.Runtime.OnActivate(b.label, ts.state)
	// Replay the live trace field into the freshly built aggregation
	// windows, in deterministic mote-id order.
	for i := range ts.traces {
		if r := &ts.traces[i]; r.Mote != b.Mote.ID() {
			b.Runtime.OnReport(r.Mote, r)
		}
	}
	b.armStaleTimer()
}

func (b *Backend) deactivate() {
	label := b.label
	b.active = false
	b.ts.staleTimer.Stop()
	b.Emit(obs.EvLeaderStepDown, label, radio.Broadcast, 0)
	b.Runtime.OnDeactivate(label)
}

// armStaleTimer schedules the estimate-staleness check: if the whole
// trace field ages past the staleness bound, the estimator steps down.
func (b *Backend) armStaleTimer() {
	b.ts.staleTimer.Stop()
	b.ts.staleTimer = b.Mote.Scheduler().AfterEventTimerOwned(staleness(b.Config), simtime.OwnerGroup, staleFire, b)
}
