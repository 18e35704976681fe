// Package group implements EnviroTrack's group management protocol
// (Section 5.2): the lightweight, consistency-free maintenance of context
// labels over a dynamic sensor group. Leaders send periodic heartbeats that
// flood the group and propagate h hops past its perimeter; members arm
// receive timers that trigger leadership takeover; non-members arm wait
// deadlines that make them join existing labels instead of spawning new ones;
// leader weights (member messages received to date) suppress spurious
// labels; and an explicit relinquish mechanism hands leadership over when
// the leader stops sensing the tracked event.
//
// The manager is heartbeat-churn heavy (every heartbeat heard re-arms the
// member receive timer and may schedule a jittered rebroadcast), so the
// per-heartbeat path is allocation-free: timers fire package-level typed
// events that take the manager as their argument, so arming one captures
// nothing, a repeat of the last (label, leader) flood pair is
// recognised without building its dedup key, other keys are built in a
// stack buffer and only materialized as map keys on first sight of a
// pair, and pending rebroadcast records are pooled on a per-manager free
// list. The non-member wait is a callback-free simtime.Deadline, so the
// re-arm on every heartbeat a non-member hears touches no heap.
package group

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"envirotrack/internal/mote"
	"envirotrack/internal/obs"
	"envirotrack/internal/radio"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

// Manager runs the group-management protocol for one context type on one
// mote. It is driven by the simulation scheduler via the mote's frame
// handlers and its own timers.
type Manager struct {
	m       *mote.Mote
	ctxType string
	cfg     Config
	cb      Callbacks
	ledger  *trace.Ledger

	sensing bool
	role    Role
	label   Label

	// Leader state.
	weight    uint64
	state     []byte
	hbSeq     uint64
	hbTimer   simtime.Timer
	reporters map[radio.NodeID]time.Duration // member -> last report time; made by becomeLeader

	// Member state.
	leaderID     radio.NodeID
	lastWeight   uint64
	lastState    []byte
	receiveTimer simtime.Timer
	reportTicker *simtime.Ticker
	reportDelay  simtime.Timer

	// Non-member state: memory of a nearby label, kept until waitUntil.
	waitUntil  simtime.Deadline
	waitLabel  Label
	waitLeader radio.NodeID
	waitWeight uint64
	waitState  []byte

	// Label-creation backoff.
	creationTimer simtime.Timer
	labelSeq      int

	// seen tracks, per (label, leader) flood key, the highest heartbeat Seq
	// received and any pending jittered rebroadcast awaiting its timer. It
	// is made on the first heartbeat heard.
	seen map[string]*hbState
	// lastSeen is the seen entry of the last heartbeat heard. A flood
	// repeats one (label, leader) pair, so most lookups end here: 95% of
	// heartbeats heard on the stress-leader benchmark workload, 75% on
	// field10k, where neighbouring groups' floods interleave.
	lastSeen *hbState

	// pfFree is the pendingForward free list (intrusive via next).
	pfFree *pendingForward
}

// hbState is the per-(label, leader) flood bookkeeping.
type hbState struct {
	label  Label
	leader radio.NodeID
	seq    uint64          // highest heartbeat Seq received
	pf     *pendingForward // scheduled rebroadcast, nil when none pending
}

// pendingForward is a jittered heartbeat rebroadcast awaiting its timer;
// duplicate receptions during the wait increment dups and may suppress it.
// Records are pooled: fired or superseded forwards return to the manager's
// free list.
type pendingForward struct {
	g     *Manager
	st    *hbState
	seq   uint64
	dups  int
	hb    Heartbeat  // copy to rebroadcast, HopsPast already decremented
	corr  radio.Corr // original correlation header, preserved verbatim
	timer simtime.Timer
	next  *pendingForward
}

// NewManager attaches a group manager for ctxType to the mote. The ledger
// may be nil to disable coherence tracing.
func NewManager(m *mote.Mote, ctxType string, cfg Config, cb Callbacks, ledger *trace.Ledger) *Manager {
	g := &Manager{
		m:       m,
		ctxType: ctxType,
		cfg:     cfg.WithDefaults(),
		cb:      cb,
		ledger:  ledger,
		role:    RoleNone,
	}
	m.AddFrameHandler(g.handleFrame)
	return g
}

// hbFire sends a leader's next heartbeat.
func hbFire(arg any) {
	g := arg.(*Manager)
	if g.m.Failed() || g.role != RoleLeader {
		return
	}
	g.sendHeartbeat()
	g.scheduleNextHeartbeat()
}

// recvFire is a member's receive timeout.
func recvFire(arg any) { arg.(*Manager).onReceiveTimeout() }

// creationFire ends the label-creation backoff.
func creationFire(arg any) {
	g := arg.(*Manager)
	if g.m.Failed() || !g.sensing || g.role != RoleNone {
		return
	}
	if g.waitUntil.Pending() {
		g.joinWaitedLabel()
		return
	}
	g.createLabel()
}

// reportFirst sends a member's first report and starts its report cycle.
func reportFirst(arg any) {
	g := arg.(*Manager)
	if g.m.Failed() || g.role != RoleMember {
		return
	}
	g.sendReport()
	g.startReportTicker()
}

// Role returns the mote's current role for this context type.
func (g *Manager) Role() Role { return g.role }

// Label returns the context label the mote currently participates in
// (empty when RoleNone).
func (g *Manager) Label() Label { return g.label }

// LeaderID returns the last known leader of the mote's label.
func (g *Manager) LeaderID() radio.NodeID {
	if g.role == RoleLeader {
		return g.m.ID()
	}
	return g.leaderID
}

// Weight returns the leader weight (meaningful when leading).
func (g *Manager) Weight() uint64 { return g.weight }

// Sensing returns the last sensing state supplied via SetSensing.
func (g *Manager) Sensing() bool { return g.sensing }

// CtxType returns the context type this manager maintains.
func (g *Manager) CtxType() string { return g.ctxType }

// SetState updates the label's persistent state; it is piggybacked on
// subsequent heartbeats so that a successor leader resumes from it. Only a
// leader may set state; other calls are ignored.
func (g *Manager) SetState(state []byte) {
	if g.role != RoleLeader {
		return
	}
	g.state = append([]byte(nil), state...)
}

// State returns the current persistent state known for the label.
func (g *Manager) State() []byte {
	switch g.role {
	case RoleLeader:
		return g.state
	case RoleMember:
		return g.lastState
	default:
		return nil
	}
}

// Stop tears down all timers (end of simulation cleanup).
func (g *Manager) Stop() {
	g.stopLeaderDuties()
	g.stopMemberDuties()
	g.waitUntil = simtime.Deadline{}
	g.stopTimer(&g.creationTimer)
}

// SetSensing informs the manager of the mote's current sensee() evaluation
// and mirrors it into the mote's HotState sensing bit, the only place that
// bit is written. The middleware calls it when the evaluation differs from
// that bit; no-change calls are cheap.
func (g *Manager) SetSensing(sensing bool) {
	if g.m.Failed() || sensing == g.sensing {
		return
	}
	g.sensing = sensing
	if h, i := g.m.Hot(); h != nil {
		h.SetSensing(i, g.ctxType, sensing)
	}
	if sensing {
		g.onStartSensing()
	} else {
		g.onStopSensing()
	}
}

func (g *Manager) onStartSensing() {
	if g.role != RoleNone {
		return
	}
	// A nearby label is remembered: join it rather than spawning a new one.
	if g.waitUntil.Pending() {
		g.joinWaitedLabel()
		return
	}
	// Otherwise back off briefly in case a heartbeat is in flight, then
	// create a fresh label.
	if g.creationTimer.Pending() {
		return
	}
	backoff := time.Duration(g.m.Rand().Float64() * float64(g.cfg.CreationBackoff))
	g.creationTimer = g.m.Scheduler().AfterEventTimerOwned(backoff, simtime.OwnerGroup, creationFire, g)
}

func (g *Manager) onStopSensing() {
	switch g.role {
	case RoleLeader:
		g.leaderStepDown()
	case RoleMember:
		g.leaveMembership()
	default:
		g.stopTimer(&g.creationTimer)
	}
}

// --- label creation and leadership ---

func (g *Manager) createLabel() {
	g.labelSeq++
	label := Label(fmt.Sprintf("%s/%d.%d", g.ctxType, g.m.ID(), g.labelSeq))
	g.recordEvent(trace.LabelCreated, label)
	g.becomeLeader(label, 0, nil)
}

func (g *Manager) becomeLeader(label Label, weight uint64, state []byte) {
	g.stopMemberDuties()
	g.waitUntil = simtime.Deadline{}
	g.stopTimer(&g.creationTimer)

	g.setRole(RoleLeader)
	g.label = label
	g.weight = weight
	g.state = state
	g.reporters = make(map[radio.NodeID]time.Duration)

	if g.cb.OnBecomeLeader != nil {
		g.cb.OnBecomeLeader(label, state)
	}
	g.sendHeartbeat()
	g.scheduleNextHeartbeat()
}

// scheduleNextHeartbeat arms the next heartbeat with a small symmetric
// jitter so that leaders created at the same instant (a target appearing
// over several motes at once) do not collide in lockstep forever.
func (g *Manager) scheduleNextHeartbeat() {
	jitter := 1 + JitterFrac*(g.m.Rand().Float64()-0.5)
	d := time.Duration(float64(g.cfg.HeartbeatPeriod) * jitter)
	g.hbTimer = g.m.Scheduler().AfterEventTimerOwned(d, simtime.OwnerGroup, hbFire, g)
}

func (g *Manager) sendHeartbeat() {
	g.hbSeq++
	hb := Heartbeat{
		CtxType:   g.ctxType,
		Label:     g.label,
		Leader:    g.m.ID(),
		LeaderLoc: g.m.Pos(),
		Weight:    g.weight,
		Seq:       g.hbSeq,
		HopsPast:  g.cfg.HopsPast,
		State:     g.state,
	}
	corr := radio.Corr{Origin: int32(g.m.ID()), Seq: g.m.NextCorrSeq()}
	g.m.BroadcastTraced(trace.KindHeartbeat, HeartbeatBits+len(g.state)*8, hb, corr)
	g.emit(obs.EvHeartbeatSent, g.label, radio.Broadcast, g.hbSeq)
}

// leaderStepDown handles a leader that stopped sensing: explicit
// relinquish when enabled, silent departure otherwise.
func (g *Manager) leaderStepDown() {
	label, weight, state := g.label, g.weight, g.state
	successor := radio.Broadcast
	if !g.cfg.DisableRelinquish {
		if s, ok := g.pickSuccessor(); ok {
			successor = s
			g.m.Broadcast(trace.KindRelinquish, HeartbeatBits+len(state)*8, Relinquish{
				CtxType:   g.ctxType,
				Label:     label,
				OldLeader: g.m.ID(),
				NewLeader: successor,
				Weight:    weight,
				State:     state,
			})
		}
	}
	g.emit(obs.EvLeaderStepDown, label, successor, 0)
	g.loseLeadership()
	// Remember the label so that re-sensing rejoins rather than respawns.
	g.rememberLabel(label, radio.Broadcast, weight, state)
}

// pickSuccessor chooses the member with the most recent report (ties broken
// by lowest id) that reported within two report periods.
func (g *Manager) pickSuccessor() (radio.NodeID, bool) {
	horizon := g.m.Scheduler().Now() - 2*g.cfg.ReportPeriod
	best := radio.NodeID(-1)
	var bestAt time.Duration = -1
	for id, at := range g.reporters {
		if at < horizon {
			continue
		}
		if at > bestAt || (at == bestAt && (best < 0 || id < best)) {
			best, bestAt = id, at
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

func (g *Manager) loseLeadership() {
	label := g.label
	g.stopLeaderDuties()
	g.setRole(RoleNone)
	g.label = ""
	if g.cb.OnLoseLeadership != nil {
		g.cb.OnLoseLeadership(label)
	}
}

func (g *Manager) stopLeaderDuties() {
	g.stopTimer(&g.hbTimer)
}

// --- membership ---

func (g *Manager) joinWaitedLabel() {
	g.stopTimer(&g.creationTimer)
	label, leader, weight, state := g.waitLabel, g.waitLeader, g.waitWeight, g.waitState
	g.waitUntil = simtime.Deadline{}
	g.becomeMember(label, leader, weight, state)
}

func (g *Manager) becomeMember(label Label, leader radio.NodeID, weight uint64, state []byte) {
	wasLeader := g.role == RoleLeader
	if wasLeader {
		oldLabel := g.label
		g.stopLeaderDuties()
		if g.cb.OnLoseLeadership != nil {
			g.cb.OnLoseLeadership(oldLabel)
		}
	}
	g.waitUntil = simtime.Deadline{}
	g.stopTimer(&g.creationTimer)

	g.setRole(RoleMember)
	g.label = label
	g.leaderID = leader
	g.lastWeight = weight
	g.lastState = state
	g.emit(obs.EvLabelJoined, label, leader, 0)
	g.armReceiveTimer()
	g.startReporting()
}

func (g *Manager) armReceiveTimer() {
	g.receiveTimer.Stop()
	d := g.cfg.receiveTimeout(g.m.Rand().Float64())
	g.receiveTimer = g.m.Scheduler().AfterEventTimerOwned(d, simtime.OwnerGroup, recvFire, g)
}

func (g *Manager) onReceiveTimeout() {
	if g.m.Failed() || g.role != RoleMember {
		return
	}
	g.emit(obs.EvReceiveTimerFired, g.label, g.leaderID, 0)
	label, weight, state := g.label, g.lastWeight, g.lastState
	if !g.sensing {
		g.leaveMembership()
		return
	}
	// Leadership takeover: continue the same label with the inherited
	// weight and persistent state.
	g.stopMemberDuties()
	g.recordEvent(trace.LabelTakeover, label)
	g.becomeLeader(label, weight, state)
}

func (g *Manager) startReporting() {
	g.stopReporting()
	// Desynchronize members: first report after a random fraction of the
	// report period, then periodic.
	first := time.Duration(g.m.Rand().Float64() * float64(g.cfg.ReportPeriod))
	g.reportDelay = g.m.Scheduler().AfterEventTimerOwned(first, simtime.OwnerGroup, reportFirst, g)
}

// startReportTicker begins the periodic report cycle, reusing the ticker
// object across membership episodes.
func (g *Manager) startReportTicker() {
	if g.reportTicker == nil {
		g.reportTicker = simtime.NewTickerOwned(g.m.Scheduler(), g.cfg.ReportPeriod, simtime.OwnerGroup, g.reportTick)
	} else {
		g.reportTicker.Reset(g.cfg.ReportPeriod)
	}
}

// reportTick sends a member's periodic report.
func (g *Manager) reportTick() {
	if g.m.Failed() || g.role != RoleMember {
		return
	}
	g.sendReport()
}

func (g *Manager) sendReport() {
	var payload any
	if g.cb.ReportPayload != nil {
		payload = g.cb.ReportPayload()
	}
	rep := Report{CtxType: g.ctxType, Label: g.label, Reporter: g.m.ID(), Payload: payload}
	// Member readings are single-hop (no router involved), so the manager
	// opens the report span itself; the leader's accept/reject closes it.
	corr := radio.Corr{Origin: int32(g.m.ID()), Seq: g.m.NextCorrSeq()}
	g.emitCorr(obs.EvReportSent, g.leaderID, g.label, corr, "")
	g.m.SendTraced(trace.KindReading, g.leaderID, reportBits, rep, corr)
}

func (g *Manager) stopReporting() {
	g.stopTimer(&g.reportDelay)
	if g.reportTicker != nil {
		g.reportTicker.Stop()
	}
}

func (g *Manager) leaveMembership() {
	label, weight, state := g.label, g.lastWeight, g.lastState
	g.stopMemberDuties()
	g.setRole(RoleNone)
	g.label = ""
	// Keep memory of the label so a quick re-sense rejoins it.
	g.rememberLabel(label, g.leaderID, weight, state)
}

func (g *Manager) stopMemberDuties() {
	g.stopTimer(&g.receiveTimer)
	g.stopReporting()
}

// rememberLabel stores wait memory of a nearby label.
func (g *Manager) rememberLabel(label Label, leader radio.NodeID, weight uint64, state []byte) {
	g.emit(obs.EvWaitTimerArmed, label, leader, 0)
	g.waitLabel = label
	g.waitLeader = leader
	g.waitWeight = weight
	g.waitState = state
	g.waitUntil = g.m.Scheduler().DeadlineAfter(g.cfg.waitTimeout())
}

// setRole records a role transition, mirroring it into the mote's
// hot-state membership word (the bit is set whenever the manager holds any
// role, which is what the group_size series probe counts).
func (g *Manager) setRole(r Role) {
	g.role = r
	if h, i := g.m.Hot(); h != nil {
		h.SetMember(i, g.ctxType, r != RoleNone)
	}
}

// stopTimer cancels a timer and resets the handle to the inert zero value.
func (g *Manager) stopTimer(t *simtime.Timer) {
	t.Stop()
	*t = simtime.Timer{}
}

// --- frame handling ---

func (g *Manager) handleFrame(f radio.Frame) bool {
	switch msg := f.Payload.(type) {
	case Heartbeat:
		if msg.CtxType != g.ctxType {
			return false
		}
		g.onHeartbeat(msg, f.Corr)
		return true
	case Report:
		if msg.CtxType != g.ctxType {
			return false
		}
		g.onReport(msg, f.Corr)
		return true
	case Relinquish:
		if msg.CtxType != g.ctxType {
			return false
		}
		g.onRelinquish(msg)
		return true
	default:
		return false
	}
}

func (g *Manager) onHeartbeat(hb Heartbeat, corr radio.Corr) {
	// Deduplicate flood copies; duplicates feed the broadcast-storm
	// suppression counter of a pending rebroadcast.
	st := g.lastSeen
	if st == nil || st.leader != hb.Leader || st.label != hb.Label {
		st = g.seenEntry(hb.Label, hb.Leader)
		g.lastSeen = st
	}
	if hb.Seq <= st.seq {
		if st.pf != nil && st.pf.seq == hb.Seq {
			st.pf.dups++
		}
		return
	}
	st.seq = hb.Seq

	g.forwardHeartbeat(st, hb, corr)

	switch g.role {
	case RoleLeader:
		g.leaderOnHeartbeat(hb)
	case RoleMember:
		g.memberOnHeartbeat(hb)
	default:
		g.idleOnHeartbeat(hb)
	}
}

// seenEntry returns the flood bookkeeping of a (label, leader) pair,
// creating it on first sight. The key "<label>/<leader>" is assembled in
// a stack buffer; Go's map-lookup-by-converted-byte-slice idiom keeps the
// already-seen path allocation-free.
func (g *Manager) seenEntry(label Label, leader radio.NodeID) *hbState {
	var buf [64]byte
	b := append(buf[:0], label...)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(leader), 10)
	if st, ok := g.seen[string(b)]; ok {
		return st
	}
	if g.seen == nil {
		g.seen = make(map[string]*hbState)
	}
	st := &hbState{label: label, leader: leader}
	g.seen[string(b)] = st
	return st
}

// forwardHeartbeat implements the h-hop heartbeat propagation: the
// leader's single broadcast is normally enough to flood the group (the
// sensors in a group are physically close), and each additional hop of
// propagation past that consumes one unit of the HopsPast budget — h=0
// means no relaying at all, which is exactly the Figure 4 setting where
// handovers start to fail. Rebroadcasts are jittered, and counter-based
// broadcast-storm suppression cancels a pending rebroadcast when enough
// copies are overheard first.
func (g *Manager) forwardHeartbeat(st *hbState, hb Heartbeat, corr radio.Corr) {
	if hb.Leader == g.m.ID() {
		return
	}
	if hb.HopsPast <= 0 {
		return
	}
	if old := st.pf; old != nil {
		// A newer heartbeat supersedes the older pending rebroadcast.
		old.timer.Stop()
		st.pf = nil
		g.recyclePF(old)
	}
	pf := g.acquirePF()
	pf.g = g
	pf.st = st
	pf.seq = hb.Seq
	pf.dups = 0
	pf.hb = hb
	pf.hb.HopsPast = hb.HopsPast - 1
	pf.corr = corr
	delay := time.Duration(g.m.Rand().Float64() * float64(floodJitter))
	pf.timer = g.m.Scheduler().AfterEventTimerOwned(delay, simtime.OwnerGroup, pendingForwardFire, pf)
	st.pf = pf
}

// pendingForwardFire runs a jittered rebroadcast when its timer expires.
// It is a package-level EventFunc so scheduling it captures nothing.
func pendingForwardFire(arg any) {
	pf := arg.(*pendingForward)
	g := pf.g
	pf.st.pf = nil
	if g.m.Failed() {
		g.recyclePF(pf)
		return
	}
	if pf.dups >= g.cfg.FloodSuppress {
		g.emit(obs.EvHeartbeatSuppressed, pf.hb.Label, pf.hb.Leader, pf.hb.Seq)
		g.recyclePF(pf)
		return
	}
	label, leader, seq := pf.hb.Label, pf.hb.Leader, pf.hb.Seq
	bits := HeartbeatBits + len(pf.hb.State)*8
	fwd, corr := pf.hb, pf.corr
	g.recyclePF(pf)
	g.m.BroadcastTraced(trace.KindHeartbeat, bits, fwd, corr)
	g.emit(obs.EvHeartbeatForwarded, label, leader, seq)
}

func (g *Manager) acquirePF() *pendingForward {
	if pf := g.pfFree; pf != nil {
		g.pfFree = pf.next
		pf.next = nil
		return pf
	}
	return &pendingForward{}
}

func (g *Manager) recyclePF(pf *pendingForward) {
	pf.st = nil
	pf.hb = Heartbeat{}
	pf.corr = radio.Corr{}
	pf.timer = simtime.Timer{}
	pf.next = g.pfFree
	g.pfFree = pf
}

// outranks reports whether the (weight, id) pair of a foreign leadership
// beats ours. Equal weights are broken by comparing the decimal string
// renderings of the ids — the protocol's historical lexical tiebreak —
// without materializing the strings.
func outranks(otherWeight, myWeight uint64, other, mine radio.NodeID) bool {
	if otherWeight != myWeight {
		return otherWeight > myWeight
	}
	var ob, mb [20]byte
	return bytes.Compare(strconv.AppendInt(ob[:0], int64(other), 10),
		strconv.AppendInt(mb[:0], int64(mine), 10)) > 0
}

// foreignOutranks decides between two *different* labels of the same
// context type. Weights observed via heartbeats are stale, so two groups
// around the same entity can leapfrog each other's weight indefinitely;
// within a slack band the label identity breaks the tie, which is a
// globally consistent order and therefore guarantees the groups merge.
func (g *Manager) foreignOutranks(otherWeight, myWeight uint64, otherLabel, myLabel Label) bool {
	slack := uint64(weightSlack)
	switch {
	case otherWeight > myWeight+slack:
		return true
	case myWeight > otherWeight+slack:
		return false
	default:
		return otherLabel > myLabel
	}
}

func (g *Manager) leaderOnHeartbeat(hb Heartbeat) {
	if hb.Label == g.label {
		if hb.Leader == g.m.ID() {
			return
		}
		// Two leaders within one context label: the lower-priority one
		// yields immediately to prevent redundant behavior. (The chaosmut
		// build suppresses the yield to prove the invariant checker.)
		if !mutationSuppressYield && outranks(hb.Weight, g.weight, hb.Leader, g.m.ID()) {
			g.recordEvent(trace.LabelYield, g.label)
			g.becomeMember(hb.Label, hb.Leader, hb.Weight, hb.State)
		}
		return
	}
	// A different label of the same type: the smaller-weight label is
	// spurious — delete it and join the heavier group.
	if g.foreignOutranks(hb.Weight, g.weight, hb.Label, g.label) {
		g.recordEvent(trace.LabelDeleted, g.label)
		if g.cb.OnLabelDeleted != nil {
			g.cb.OnLabelDeleted(g.label)
		}
		if g.sensing {
			g.becomeMember(hb.Label, hb.Leader, hb.Weight, hb.State)
		} else {
			g.loseLeadership()
			g.rememberLabel(hb.Label, hb.Leader, hb.Weight, hb.State)
		}
	}
}

func (g *Manager) memberOnHeartbeat(hb Heartbeat) {
	if hb.Label == g.label {
		g.leaderID = hb.Leader
		g.lastWeight = hb.Weight
		g.lastState = hb.State
		g.armReceiveTimer()
		return
	}
	// Prefer the heavier label (ignore leaders with smaller weight).
	if g.foreignOutranks(hb.Weight, g.lastWeight, hb.Label, g.label) {
		g.becomeMember(hb.Label, hb.Leader, hb.Weight, hb.State)
	}
}

func (g *Manager) idleOnHeartbeat(hb Heartbeat) {
	// Remember the nearest (heaviest) label; if we sense the condition
	// before the wait timer expires we join instead of spawning.
	if g.waitUntil.Pending() && hb.Label != g.waitLabel &&
		!g.foreignOutranks(hb.Weight, g.waitWeight, hb.Label, g.waitLabel) {
		return
	}
	g.rememberLabel(hb.Label, hb.Leader, hb.Weight, hb.State)
	if g.sensing {
		// Sensing during creation backoff: join right away.
		g.joinWaitedLabel()
	}
}

func (g *Manager) onReport(rep Report, corr radio.Corr) {
	if g.role != RoleLeader || rep.Label != g.label {
		// The reading reached a mote that is not (or no longer) the leader
		// of its label — a handover or step-down raced the report cycle.
		if corr.Seq != 0 {
			g.emitCorr(obs.EvRouteDropped, rep.Reporter, rep.Label, corr, "stale_leader")
		}
		return
	}
	if corr.Seq != 0 {
		g.emitCorr(obs.EvRouteDelivered, rep.Reporter, rep.Label, corr, "")
	}
	g.weight++
	g.reporters[rep.Reporter] = g.m.Scheduler().Now()
	if g.cb.OnReport != nil {
		g.cb.OnReport(rep.Reporter, rep.Payload)
	}
}

func (g *Manager) onRelinquish(rel Relinquish) {
	if rel.NewLeader == g.m.ID() && g.sensing && g.role != RoleLeader {
		g.recordEvent(trace.LabelRelinquish, rel.Label)
		g.becomeLeader(rel.Label, rel.Weight, rel.State)
		return
	}
	if g.role == RoleMember && rel.Label == g.label {
		// Expect the successor's heartbeat shortly; refresh our view.
		g.leaderID = rel.NewLeader
		g.lastWeight = rel.Weight
		g.lastState = rel.State
		g.armReceiveTimer()
	}
}

func (g *Manager) recordEvent(ty trace.LabelEventType, label Label) {
	if ev, ok := obs.LabelEvent(ty); ok {
		g.emit(ev, label, radio.Broadcast, 0)
	}
	if g.ledger == nil {
		return
	}
	g.ledger.Record(trace.LabelEvent{
		At:      g.m.Scheduler().Now(),
		Type:    ty,
		Label:   string(label),
		CtxType: g.ctxType,
		Mote:    int(g.m.ID()),
	})
}

// emitCorr publishes one report-lifecycle event for a member reading,
// carrying the reading's correlation key so the span assembler can stitch
// it to the radio frames.
func (g *Manager) emitCorr(ev obs.EventType, peer radio.NodeID, label Label, corr radio.Corr, cause string) {
	if bus := g.m.Obs(); bus.Active() {
		bus.Emit(obs.Event{
			At:      g.m.Scheduler().Now(),
			Type:    ev,
			Mote:    int(g.m.ID()),
			Peer:    int(peer),
			CtxType: g.ctxType,
			Pos:     g.m.Pos(),
			Kind:    trace.KindReading,
			Cause:   cause,
			Label:   string(label),
			Origin:  int(corr.Origin),
			Seq:     uint64(corr.Seq),
		})
	}
}

// emit publishes one group-protocol event. peer is the other mote involved
// (heartbeat origin, known leader, chosen successor) or radio.Broadcast
// when there is none.
func (g *Manager) emit(ev obs.EventType, label Label, peer radio.NodeID, seq uint64) {
	if bus := g.m.Obs(); bus.Active() {
		bus.Emit(obs.Event{
			At:      g.m.Scheduler().Now(),
			Type:    ev,
			Mote:    int(g.m.ID()),
			Peer:    int(peer),
			Label:   string(label),
			CtxType: g.ctxType,
			Pos:     g.m.Pos(),
			Seq:     seq,
		})
	}
}
