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
// recognised without a map lookup, other pairs are looked up by a
// (label, leader) struct key, and pending rebroadcast records are pooled
// on a per-manager free list. The non-member wait is a callback-free
// simtime.Deadline, so the re-arm on every heartbeat a non-member hears
// touches no heap. All of that state lives in one role record per
// manager, made when the mote first hears a heartbeat or leads, so the
// many motes that never take part carry none of it.
package group

import (
	"bytes"
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
// handlers and its own timers. A mote that never takes part in the
// protocol holds only its role, its label and a nil role record.
type Manager struct {
	Base

	role  Role
	label Label

	// rs is the state of a mote that takes part in the protocol, made on
	// first use (see roles) and kept for the mote's lifetime; nil means
	// nothing remembered.
	rs *roleState
}

// roleState is what the protocol remembers on a mote that has heard a
// heartbeat or led a label: its leader, member, wait and flood state.
// Most motes of a large field never get one, and a mote that changes
// roles reuses its own.
type roleState struct {
	// Leader state.
	weight    uint64
	state     []byte
	hbSeq     uint64
	hbTimer   simtime.Timer
	reporters map[radio.NodeID]time.Duration // member -> last report time; cleared by becomeLeader

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

	// seen tracks, per (label, leader) flood key, the highest heartbeat Seq
	// received and any pending jittered rebroadcast awaiting its timer. It
	// is made on the first heartbeat heard.
	seen map[floodKey]*hbState
	// lastSeen is the seen entry of the last heartbeat heard. A flood
	// repeats one (label, leader) pair, so most lookups end here: 95% of
	// heartbeats heard on the stress-leader benchmark workload, 75% on
	// field10k, where neighbouring groups' floods interleave.
	lastSeen *hbState

	// pfFree is the pendingForward free list (intrusive via next).
	pfFree *pendingForward
}

// floodKey names one heartbeat flood: a label and its originating leader.
type floodKey struct {
	label  Label
	leader radio.NodeID
}

// hbState is the per-(label, leader) flood bookkeeping.
type hbState struct {
	floodKey
	seq uint64          // highest heartbeat Seq received
	pf  *pendingForward // scheduled rebroadcast, nil when none pending
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

// NewManager attaches a group manager for context type t to the mote; it
// records label events in the ledger of the mote's env.
func NewManager(m *mote.Mote, t *Type, rt Runtime) *Manager {
	return &Manager{Base: NewBase(m, t, rt), role: RoleNone}
}

// roles returns the mote's role record, making it on first use: the
// first heartbeat heard, or the first leadership (a label the mote
// creates, or one a relinquish hands it).
func (g *Manager) roles() *roleState {
	if g.rs == nil {
		g.rs = new(roleState)
	}
	return g.rs
}

// waitPending reports whether the mote remembers a nearby label.
func (g *Manager) waitPending() bool {
	return g.rs != nil && g.rs.waitUntil.Pending()
}

// hbFire sends a leader's next heartbeat.
func hbFire(arg any) {
	g := arg.(*Manager)
	if g.Mote.Failed() || g.role != RoleLeader {
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
	if g.Mote.Failed() || !g.Sensing() || g.role != RoleNone {
		return
	}
	if g.waitPending() {
		g.joinWaitedLabel()
		return
	}
	g.becomeLeader(g.MintLabel(), 0, nil)
}

// reportFirst sends a member's first report and starts its report cycle.
func reportFirst(arg any) {
	g := arg.(*Manager)
	if g.Mote.Failed() || g.role != RoleMember {
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

// Participating reports whether the mote is a member or the leader of
// some label.
func (g *Manager) Participating() bool { return g.role != RoleNone }

// LeaderID returns the last known leader of the mote's label.
func (g *Manager) LeaderID() radio.NodeID {
	if g.role == RoleLeader {
		return g.Mote.ID()
	}
	if g.rs == nil {
		return 0
	}
	return g.rs.leaderID
}

// Weight returns the leader weight (meaningful when leading).
func (g *Manager) Weight() uint64 {
	if g.rs == nil {
		return 0
	}
	return g.rs.weight
}

// SetState updates the label's persistent state; it is piggybacked on
// subsequent heartbeats so that a successor leader resumes from it. Only a
// leader may set state; other calls are ignored.
func (g *Manager) SetState(state []byte) {
	if g.role != RoleLeader {
		return
	}
	g.rs.state = append([]byte(nil), state...)
}

// State returns the current persistent state known for the label.
func (g *Manager) State() []byte {
	switch g.role {
	case RoleLeader:
		return g.rs.state
	case RoleMember:
		return g.rs.lastState
	default:
		return nil
	}
}

// Stop tears down all timers (end of simulation cleanup).
func (g *Manager) Stop() {
	if g.rs != nil {
		g.stopLeaderDuties()
		g.stopMemberDuties()
		g.rs.waitUntil = simtime.Deadline{}
	}
	g.CreationTimer.Stop()
}

// SetSensing informs the manager of the mote's current sensee() evaluation
// and stores it as the mote's HotState sensing bit, the only place that
// bit is written. The middleware calls it when the evaluation differs from
// that bit; no-change calls are cheap.
func (g *Manager) SetSensing(sensing bool) {
	if !g.WriteSensing(sensing) {
		return
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
	if g.waitPending() {
		g.joinWaitedLabel()
		return
	}
	// Otherwise back off briefly in case a heartbeat is in flight, then
	// create a fresh label.
	g.ArmBackoff(&g.CreationTimer, creationFire, g)
}

func (g *Manager) onStopSensing() {
	switch g.role {
	case RoleLeader:
		g.leaderStepDown()
	case RoleMember:
		g.leaveMembership()
	default:
		g.CreationTimer.Stop()
	}
}

// --- label creation and leadership ---

func (g *Manager) becomeLeader(label Label, weight uint64, state []byte) {
	rs := g.roles()
	g.stopMemberDuties()
	rs.waitUntil = simtime.Deadline{}
	g.CreationTimer.Stop()

	g.setRole(RoleLeader)
	g.label = label
	rs.weight = weight
	rs.state = state
	// Only this leadership's reporters may succeed it.
	if rs.reporters == nil {
		rs.reporters = make(map[radio.NodeID]time.Duration)
	} else {
		clear(rs.reporters)
	}

	g.Runtime.OnActivate(label, state)
	g.sendHeartbeat()
	g.scheduleNextHeartbeat()
}

// scheduleNextHeartbeat arms the next heartbeat with a small symmetric
// jitter so that leaders created at the same instant (a target appearing
// over several motes at once) do not collide in lockstep forever.
func (g *Manager) scheduleNextHeartbeat() {
	jitter := 1 + JitterFrac*(g.Mote.Draw()-0.5)
	d := time.Duration(float64(g.Config.HeartbeatPeriod) * jitter)
	g.rs.hbTimer = g.Mote.Scheduler().AfterEventTimerOwned(d, simtime.OwnerGroup, hbFire, g)
}

func (g *Manager) sendHeartbeat() {
	rs := g.rs
	rs.hbSeq++
	hb := Heartbeat{
		CtxType:   g.Name,
		Label:     g.label,
		Leader:    g.Mote.ID(),
		LeaderLoc: g.Mote.Pos(),
		Weight:    rs.weight,
		Seq:       rs.hbSeq,
		HopsPast:  g.Config.HopsPast,
		State:     rs.state,
	}
	corr := radio.Corr{Origin: int32(g.Mote.ID()), Seq: g.Mote.NextCorrSeq()}
	g.Mote.BroadcastTraced(trace.KindHeartbeat, HeartbeatBits+len(rs.state)*8, hb, corr)
	g.Emit(obs.EvHeartbeatSent, g.label, radio.Broadcast, rs.hbSeq)
}

// leaderStepDown handles a leader that stopped sensing: explicit
// relinquish when enabled, silent departure otherwise.
func (g *Manager) leaderStepDown() {
	label, weight, state := g.label, g.rs.weight, g.rs.state
	successor := radio.Broadcast
	if !g.Config.DisableRelinquish {
		if s, ok := g.pickSuccessor(); ok {
			successor = s
			g.Mote.Broadcast(trace.KindRelinquish, HeartbeatBits+len(state)*8, Relinquish{
				CtxType:   g.Name,
				Label:     label,
				OldLeader: g.Mote.ID(),
				NewLeader: successor,
				Weight:    weight,
				State:     state,
			})
		}
	}
	g.Emit(obs.EvLeaderStepDown, label, successor, 0)
	g.loseLeadership()
	// Remember the label so that re-sensing rejoins rather than respawns.
	g.rememberLabel(label, radio.Broadcast, weight, state)
}

// pickSuccessor chooses the member with the most recent report (ties broken
// by lowest id) that reported within two report periods.
func (g *Manager) pickSuccessor() (radio.NodeID, bool) {
	horizon := g.Mote.Scheduler().Now() - 2*g.Config.ReportPeriod
	best := radio.NodeID(-1)
	var bestAt time.Duration = -1
	for id, at := range g.rs.reporters {
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
	g.Runtime.OnDeactivate(label)
}

func (g *Manager) stopLeaderDuties() {
	g.rs.hbTimer.Stop()
}

// --- membership ---

func (g *Manager) joinWaitedLabel() {
	rs := g.rs
	g.CreationTimer.Stop()
	label, leader, weight, state := rs.waitLabel, rs.waitLeader, rs.waitWeight, rs.waitState
	rs.waitUntil = simtime.Deadline{}
	g.becomeMember(label, leader, weight, state)
}

func (g *Manager) becomeMember(label Label, leader radio.NodeID, weight uint64, state []byte) {
	wasLeader := g.role == RoleLeader
	if wasLeader {
		oldLabel := g.label
		g.stopLeaderDuties()
		g.Runtime.OnDeactivate(oldLabel)
	}
	rs := g.rs
	rs.waitUntil = simtime.Deadline{}
	g.CreationTimer.Stop()

	g.setRole(RoleMember)
	g.label = label
	rs.leaderID = leader
	rs.lastWeight = weight
	rs.lastState = state
	g.Emit(obs.EvLabelJoined, label, leader, 0)
	g.armReceiveTimer()
	g.startReporting()
}

func (g *Manager) armReceiveTimer() {
	g.rs.receiveTimer.Stop()
	d := g.Config.receiveTimeout(g.Mote.Draw())
	g.rs.receiveTimer = g.Mote.Scheduler().AfterEventTimerOwned(d, simtime.OwnerGroup, recvFire, g)
}

func (g *Manager) onReceiveTimeout() {
	if g.Mote.Failed() || g.role != RoleMember {
		return
	}
	g.Emit(obs.EvReceiveTimerFired, g.label, g.rs.leaderID, 0)
	label, weight, state := g.label, g.rs.lastWeight, g.rs.lastState
	if !g.Sensing() {
		g.leaveMembership()
		return
	}
	// Leadership takeover: continue the same label with the inherited
	// weight and persistent state.
	g.stopMemberDuties()
	g.RecordEvent(trace.LabelTakeover, label)
	g.becomeLeader(label, weight, state)
}

func (g *Manager) startReporting() {
	g.stopReporting()
	// Desynchronize members: first report after a random fraction of the
	// report period, then periodic.
	first := time.Duration(g.Mote.Draw() * float64(g.Config.ReportPeriod))
	g.rs.reportDelay = g.Mote.Scheduler().AfterEventTimerOwned(first, simtime.OwnerGroup, reportFirst, g)
}

// startReportTicker begins the periodic report cycle, reusing the ticker
// object across membership episodes.
func (g *Manager) startReportTicker() {
	rs := g.rs
	if rs.reportTicker == nil {
		rs.reportTicker = simtime.NewTickerOwned(g.Mote.Scheduler(), g.Config.ReportPeriod, simtime.OwnerGroup, g.reportTick)
	} else {
		rs.reportTicker.Reset(g.Config.ReportPeriod)
	}
}

// reportTick sends a member's periodic report.
func (g *Manager) reportTick() {
	if g.Mote.Failed() || g.role != RoleMember {
		return
	}
	g.sendReport()
}

func (g *Manager) sendReport() {
	rep := Report{CtxType: g.Name, Label: g.label, Reporter: g.Mote.ID(), Payload: g.Runtime.ReportPayload()}
	// Member readings are single-hop (no router involved), so the manager
	// opens the report span itself; the leader's accept/reject closes it.
	corr := radio.Corr{Origin: int32(g.Mote.ID()), Seq: g.Mote.NextCorrSeq()}
	g.EmitCorr(obs.EvReportSent, trace.KindReading, g.rs.leaderID, g.label, corr, "")
	g.Mote.SendTraced(trace.KindReading, g.rs.leaderID, reportBits, rep, corr)
}

func (g *Manager) stopReporting() {
	g.rs.reportDelay.Stop()
	if g.rs.reportTicker != nil {
		g.rs.reportTicker.Stop()
	}
}

func (g *Manager) leaveMembership() {
	rs := g.rs
	label, weight, state := g.label, rs.lastWeight, rs.lastState
	g.stopMemberDuties()
	g.setRole(RoleNone)
	g.label = ""
	// Keep memory of the label so a quick re-sense rejoins it.
	g.rememberLabel(label, rs.leaderID, weight, state)
}

func (g *Manager) stopMemberDuties() {
	g.rs.receiveTimer.Stop()
	g.stopReporting()
}

// rememberLabel stores wait memory of a nearby label.
func (g *Manager) rememberLabel(label Label, leader radio.NodeID, weight uint64, state []byte) {
	rs := g.rs
	g.Emit(obs.EvWaitTimerArmed, label, leader, 0)
	rs.waitLabel = label
	rs.waitLeader = leader
	rs.waitWeight = weight
	rs.waitState = state
	rs.waitUntil = g.Mote.Scheduler().DeadlineAfter(g.Config.waitTimeout())
}

// setRole records a role transition, mirroring it into the mote's
// hot-state membership word (the bit is set whenever the manager holds any
// role, which is what the group_size series probe counts).
func (g *Manager) setRole(r Role) {
	g.role = r
	g.SetMember(r != RoleNone)
}

// --- frame handling ---

// HandleFrame consumes a heartbeat, report or relinquish frame of the
// manager's context type and returns false for any other frame.
func (g *Manager) HandleFrame(f radio.Frame) bool {
	switch msg := f.Payload.(type) {
	case Heartbeat:
		if msg.CtxType != g.Name {
			return false
		}
		g.emitHeard(trace.KindHeartbeat, msg.Label, msg.Leader, msg.Seq)
		g.onHeartbeat(msg, f.Corr)
		return true
	case Report:
		if msg.CtxType != g.Name {
			return false
		}
		g.onReport(msg, f.Corr)
		return true
	case Relinquish:
		if msg.CtxType != g.Name {
			return false
		}
		g.emitHeard(trace.KindRelinquish, msg.Label, msg.OldLeader, 0)
		g.onRelinquish(msg)
		return true
	default:
		return false
	}
}

// emitHeard publishes that the manager took a heartbeat or relinquish of
// its type off the mote's queue, before dedup and role logic, so every
// copy is published: the moment the protocol hears it, which the radio's
// frame_received precedes by the CPU queue wait. origin is the heartbeat's
// leader or the relinquishing one.
func (g *Manager) emitHeard(kind trace.Kind, label Label, origin radio.NodeID, seq uint64) {
	if bus := g.Mote.Obs(); bus.Active() {
		bus.Emit(obs.Event{
			At:      g.Mote.Scheduler().Now(),
			Type:    obs.EvHeartbeatHeard,
			Mote:    int(g.Mote.ID()),
			Peer:    int(origin),
			Label:   string(label),
			CtxType: g.Name,
			Pos:     g.Mote.Pos(),
			Kind:    kind,
			Seq:     seq,
		})
	}
}

func (g *Manager) onHeartbeat(hb Heartbeat, corr radio.Corr) {
	// Deduplicate flood copies; duplicates feed the broadcast-storm
	// suppression counter of a pending rebroadcast.
	rs := g.roles()
	st := rs.lastSeen
	if st == nil || st.leader != hb.Leader || st.label != hb.Label {
		st = rs.seenEntry(hb.Label, hb.Leader)
		rs.lastSeen = st
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
// creating it on first sight.
func (rs *roleState) seenEntry(label Label, leader radio.NodeID) *hbState {
	key := floodKey{label, leader}
	if st, ok := rs.seen[key]; ok {
		return st
	}
	if rs.seen == nil {
		rs.seen = make(map[floodKey]*hbState)
	}
	st := &hbState{floodKey: key}
	rs.seen[key] = st
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
	if hb.Leader == g.Mote.ID() {
		return
	}
	if hb.HopsPast <= 0 {
		return
	}
	if old := st.pf; old != nil {
		// A newer heartbeat supersedes the older pending rebroadcast.
		old.timer.Stop()
		st.pf = nil
		g.rs.recyclePF(old)
	}
	pf := g.rs.acquirePF()
	pf.g = g
	pf.st = st
	pf.seq = hb.Seq
	pf.dups = 0
	pf.hb = hb
	pf.hb.HopsPast = hb.HopsPast - 1
	pf.corr = corr
	delay := time.Duration(g.Mote.Draw() * float64(floodJitter))
	pf.timer = g.Mote.Scheduler().AfterEventTimerOwned(delay, simtime.OwnerGroup, pendingForwardFire, pf)
	st.pf = pf
}

// pendingForwardFire runs a jittered rebroadcast when its timer expires.
// It is a package-level EventFunc so scheduling it captures nothing.
func pendingForwardFire(arg any) {
	pf := arg.(*pendingForward)
	g := pf.g
	pf.st.pf = nil
	if g.Mote.Failed() {
		g.rs.recyclePF(pf)
		return
	}
	if pf.dups >= g.Config.FloodSuppress {
		g.Emit(obs.EvHeartbeatSuppressed, pf.hb.Label, pf.hb.Leader, pf.hb.Seq)
		g.rs.recyclePF(pf)
		return
	}
	label, leader, seq := pf.hb.Label, pf.hb.Leader, pf.hb.Seq
	bits := HeartbeatBits + len(pf.hb.State)*8
	fwd, corr := pf.hb, pf.corr
	g.rs.recyclePF(pf)
	g.Mote.BroadcastTraced(trace.KindHeartbeat, bits, fwd, corr)
	g.Emit(obs.EvHeartbeatForwarded, label, leader, seq)
}

func (rs *roleState) acquirePF() *pendingForward {
	if pf := rs.pfFree; pf != nil {
		rs.pfFree = pf.next
		pf.next = nil
		return pf
	}
	return &pendingForward{}
}

func (rs *roleState) recyclePF(pf *pendingForward) {
	pf.st = nil
	pf.hb = Heartbeat{}
	pf.corr = radio.Corr{}
	pf.timer = simtime.Timer{}
	pf.next = rs.pfFree
	rs.pfFree = pf
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
		if hb.Leader == g.Mote.ID() {
			return
		}
		// Two leaders within one context label: the lower-priority one
		// yields immediately to prevent redundant behavior. (The chaosmut
		// build suppresses the yield to prove the invariant checker.)
		if !mutationSuppressYield && outranks(hb.Weight, g.rs.weight, hb.Leader, g.Mote.ID()) {
			g.RecordEvent(trace.LabelYield, g.label)
			g.becomeMember(hb.Label, hb.Leader, hb.Weight, hb.State)
		}
		return
	}
	// A different label of the same type: the smaller-weight label is
	// spurious — delete it and join the heavier group.
	if g.foreignOutranks(hb.Weight, g.rs.weight, hb.Label, g.label) {
		g.RecordEvent(trace.LabelDeleted, g.label)
		g.Runtime.OnLabelDeleted(g.label)
		if g.Sensing() {
			g.becomeMember(hb.Label, hb.Leader, hb.Weight, hb.State)
		} else {
			g.loseLeadership()
			g.rememberLabel(hb.Label, hb.Leader, hb.Weight, hb.State)
		}
	}
}

func (g *Manager) memberOnHeartbeat(hb Heartbeat) {
	rs := g.rs
	if hb.Label == g.label {
		rs.leaderID = hb.Leader
		rs.lastWeight = hb.Weight
		rs.lastState = hb.State
		g.armReceiveTimer()
		return
	}
	// Prefer the heavier label (ignore leaders with smaller weight).
	if g.foreignOutranks(hb.Weight, rs.lastWeight, hb.Label, g.label) {
		g.becomeMember(hb.Label, hb.Leader, hb.Weight, hb.State)
	}
}

func (g *Manager) idleOnHeartbeat(hb Heartbeat) {
	// Remember the nearest (heaviest) label; if we sense the condition
	// before the wait timer expires we join instead of spawning.
	rs := g.rs
	if rs.waitUntil.Pending() && hb.Label != rs.waitLabel &&
		!g.foreignOutranks(hb.Weight, rs.waitWeight, hb.Label, rs.waitLabel) {
		return
	}
	g.rememberLabel(hb.Label, hb.Leader, hb.Weight, hb.State)
	if g.Sensing() {
		// Sensing during creation backoff: join right away.
		g.joinWaitedLabel()
	}
}

func (g *Manager) onReport(rep Report, corr radio.Corr) {
	if g.role != RoleLeader || rep.Label != g.label {
		// The reading reached a mote that is not (or no longer) the leader
		// of its label — a handover or step-down raced the report cycle.
		if corr.Seq != 0 {
			g.EmitCorr(obs.EvRouteDropped, trace.KindReading, rep.Reporter, rep.Label, corr, "stale_leader")
		}
		return
	}
	if corr.Seq != 0 {
		g.EmitCorr(obs.EvRouteDelivered, trace.KindReading, rep.Reporter, rep.Label, corr, "")
	}
	g.rs.weight++
	g.rs.reporters[rep.Reporter] = g.Mote.Scheduler().Now()
	g.Runtime.OnReport(rep.Reporter, rep.Payload)
}

func (g *Manager) onRelinquish(rel Relinquish) {
	if rel.NewLeader == g.Mote.ID() && g.Sensing() && g.role != RoleLeader {
		g.RecordEvent(trace.LabelRelinquish, rel.Label)
		g.becomeLeader(rel.Label, rel.Weight, rel.State)
		return
	}
	if g.role == RoleMember && rel.Label == g.label {
		// Expect the successor's heartbeat shortly; refresh our view.
		rs := g.rs
		rs.leaderID = rel.NewLeader
		rs.lastWeight = rel.Weight
		rs.lastState = rel.State
		g.armReceiveTimer()
	}
}
