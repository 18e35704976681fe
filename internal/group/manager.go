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
// touches no heap.
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
// handlers and its own timers.
type Manager struct {
	Base

	role  Role
	label Label

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
	if g.waitUntil.Pending() {
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
	return g.leaderID
}

// Weight returns the leader weight (meaningful when leading).
func (g *Manager) Weight() uint64 { return g.weight }

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
	if g.waitUntil.Pending() {
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
	g.stopMemberDuties()
	g.waitUntil = simtime.Deadline{}
	g.CreationTimer.Stop()

	g.setRole(RoleLeader)
	g.label = label
	g.weight = weight
	g.state = state
	g.reporters = make(map[radio.NodeID]time.Duration)

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
	g.hbTimer = g.Mote.Scheduler().AfterEventTimerOwned(d, simtime.OwnerGroup, hbFire, g)
}

func (g *Manager) sendHeartbeat() {
	g.hbSeq++
	hb := Heartbeat{
		CtxType:   g.Name,
		Label:     g.label,
		Leader:    g.Mote.ID(),
		LeaderLoc: g.Mote.Pos(),
		Weight:    g.weight,
		Seq:       g.hbSeq,
		HopsPast:  g.Config.HopsPast,
		State:     g.state,
	}
	corr := radio.Corr{Origin: int32(g.Mote.ID()), Seq: g.Mote.NextCorrSeq()}
	g.Mote.BroadcastTraced(trace.KindHeartbeat, HeartbeatBits+len(g.state)*8, hb, corr)
	g.Emit(obs.EvHeartbeatSent, g.label, radio.Broadcast, g.hbSeq)
}

// leaderStepDown handles a leader that stopped sensing: explicit
// relinquish when enabled, silent departure otherwise.
func (g *Manager) leaderStepDown() {
	label, weight, state := g.label, g.weight, g.state
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
	g.Runtime.OnDeactivate(label)
}

func (g *Manager) stopLeaderDuties() {
	g.hbTimer.Stop()
}

// --- membership ---

func (g *Manager) joinWaitedLabel() {
	g.CreationTimer.Stop()
	label, leader, weight, state := g.waitLabel, g.waitLeader, g.waitWeight, g.waitState
	g.waitUntil = simtime.Deadline{}
	g.becomeMember(label, leader, weight, state)
}

func (g *Manager) becomeMember(label Label, leader radio.NodeID, weight uint64, state []byte) {
	wasLeader := g.role == RoleLeader
	if wasLeader {
		oldLabel := g.label
		g.stopLeaderDuties()
		g.Runtime.OnDeactivate(oldLabel)
	}
	g.waitUntil = simtime.Deadline{}
	g.CreationTimer.Stop()

	g.setRole(RoleMember)
	g.label = label
	g.leaderID = leader
	g.lastWeight = weight
	g.lastState = state
	g.Emit(obs.EvLabelJoined, label, leader, 0)
	g.armReceiveTimer()
	g.startReporting()
}

func (g *Manager) armReceiveTimer() {
	g.receiveTimer.Stop()
	d := g.Config.receiveTimeout(g.Mote.Draw())
	g.receiveTimer = g.Mote.Scheduler().AfterEventTimerOwned(d, simtime.OwnerGroup, recvFire, g)
}

func (g *Manager) onReceiveTimeout() {
	if g.Mote.Failed() || g.role != RoleMember {
		return
	}
	g.Emit(obs.EvReceiveTimerFired, g.label, g.leaderID, 0)
	label, weight, state := g.label, g.lastWeight, g.lastState
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
	g.reportDelay = g.Mote.Scheduler().AfterEventTimerOwned(first, simtime.OwnerGroup, reportFirst, g)
}

// startReportTicker begins the periodic report cycle, reusing the ticker
// object across membership episodes.
func (g *Manager) startReportTicker() {
	if g.reportTicker == nil {
		g.reportTicker = simtime.NewTickerOwned(g.Mote.Scheduler(), g.Config.ReportPeriod, simtime.OwnerGroup, g.reportTick)
	} else {
		g.reportTicker.Reset(g.Config.ReportPeriod)
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
	g.EmitCorr(obs.EvReportSent, trace.KindReading, g.leaderID, g.label, corr, "")
	g.Mote.SendTraced(trace.KindReading, g.leaderID, reportBits, rep, corr)
}

func (g *Manager) stopReporting() {
	g.reportDelay.Stop()
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
	g.receiveTimer.Stop()
	g.stopReporting()
}

// rememberLabel stores wait memory of a nearby label.
func (g *Manager) rememberLabel(label Label, leader radio.NodeID, weight uint64, state []byte) {
	g.Emit(obs.EvWaitTimerArmed, label, leader, 0)
	g.waitLabel = label
	g.waitLeader = leader
	g.waitWeight = weight
	g.waitState = state
	g.waitUntil = g.Mote.Scheduler().DeadlineAfter(g.Config.waitTimeout())
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
// creating it on first sight.
func (g *Manager) seenEntry(label Label, leader radio.NodeID) *hbState {
	key := floodKey{label, leader}
	if st, ok := g.seen[key]; ok {
		return st
	}
	if g.seen == nil {
		g.seen = make(map[floodKey]*hbState)
	}
	st := &hbState{floodKey: key}
	g.seen[key] = st
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
		g.recyclePF(pf)
		return
	}
	if pf.dups >= g.Config.FloodSuppress {
		g.Emit(obs.EvHeartbeatSuppressed, pf.hb.Label, pf.hb.Leader, pf.hb.Seq)
		g.recyclePF(pf)
		return
	}
	label, leader, seq := pf.hb.Label, pf.hb.Leader, pf.hb.Seq
	bits := HeartbeatBits + len(pf.hb.State)*8
	fwd, corr := pf.hb, pf.corr
	g.recyclePF(pf)
	g.Mote.BroadcastTraced(trace.KindHeartbeat, bits, fwd, corr)
	g.Emit(obs.EvHeartbeatForwarded, label, leader, seq)
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
		if hb.Leader == g.Mote.ID() {
			return
		}
		// Two leaders within one context label: the lower-priority one
		// yields immediately to prevent redundant behavior. (The chaosmut
		// build suppresses the yield to prove the invariant checker.)
		if !mutationSuppressYield && outranks(hb.Weight, g.weight, hb.Leader, g.Mote.ID()) {
			g.RecordEvent(trace.LabelYield, g.label)
			g.becomeMember(hb.Label, hb.Leader, hb.Weight, hb.State)
		}
		return
	}
	// A different label of the same type: the smaller-weight label is
	// spurious — delete it and join the heavier group.
	if g.foreignOutranks(hb.Weight, g.weight, hb.Label, g.label) {
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
	g.weight++
	g.reporters[rep.Reporter] = g.Mote.Scheduler().Now()
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
		g.leaderID = rel.NewLeader
		g.lastWeight = rel.Weight
		g.lastState = rel.State
		g.armReceiveTimer()
	}
}
