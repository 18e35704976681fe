package invariant

import (
	"testing"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/obs"
	"envirotrack/internal/trace"
)

// Default-config timing used throughout: heartbeat 500ms, so the minimum
// takeover silence is 1.05s, the liveness/notice window is 1.155s, the
// dual-leader grace is 3s, and the teardown grace is 2.155s.

const hb = 500 * time.Millisecond

func at(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }

// lead emits a leadership start for mote at position (x, 0).
func lead(c *Checker, t time.Duration, mote int, label string, x float64) {
	c.Emit(obs.Event{At: t, Type: obs.EvLabelCreated, Mote: mote, Label: label, Pos: geom.Pt(x, 0)})
}

// beat emits a heartbeat transmission keeping a leader "live".
func beat(c *Checker, t time.Duration, mote int, label string, seq uint64) {
	c.Emit(obs.Event{At: t, Type: obs.EvHeartbeatSent, Mote: mote, Label: label, Seq: seq})
}

// beatBoth keeps two leaders alive from t0 to t1 on the heartbeat period.
func beatBoth(c *Checker, t0, t1 time.Duration, a, b int, label string) {
	seq := uint64(1)
	for t := t0; t <= t1; t += hb {
		beat(c, t, a, label, seq)
		beat(c, t, b, label, seq)
		seq++
	}
}

func violationsOf(c *Checker, invariant string) []Violation {
	var out []Violation
	for _, v := range c.Violations() {
		if v.Invariant == invariant {
			out = append(out, v)
		}
	}
	return out
}

func TestDualLeaderFiresAfterGrace(t *testing.T) {
	c := New(Config{})
	lead(c, at(1), 1, "L", 0)
	lead(c, at(1), 2, "L", 1)
	beatBoth(c, at(1.5), at(4.0), 1, 2, "L")
	got := violationsOf(c, DualLeader)
	if len(got) != 1 {
		t.Fatalf("dual-leader violations = %d (%v), want 1", len(got), got)
	}
	v := got[0]
	if v.Label != "L" || v.Mote != 1 || v.Peer != 2 {
		t.Errorf("violation identifies %q motes %d/%d, want L 1/2", v.Label, v.Mote, v.Peer)
	}
	// The pair is flagged once, not on every subsequent event.
	beatBoth(c, at(4.5), at(6.0), 1, 2, "L")
	if n := len(violationsOf(c, DualLeader)); n != 1 {
		t.Errorf("pair re-flagged: %d violations", n)
	}
}

func TestDualLeaderTransientOverlapExempt(t *testing.T) {
	c := New(Config{})
	lead(c, at(1), 1, "L", 0)
	lead(c, at(1), 2, "L", 1)
	beatBoth(c, at(1.5), at(3.5), 1, 2, "L")
	// Mote 2 yields before the 3s grace elapses.
	c.Emit(obs.Event{At: at(3.8), Type: obs.EvLabelYield, Mote: 2, Label: "L"})
	c.Finish(at(10))
	if got := violationsOf(c, DualLeader); len(got) != 0 {
		t.Errorf("transient overlap flagged: %v", got)
	}
}

func TestDualLeaderOutOfRangeExempt(t *testing.T) {
	c := New(Config{CommRadius: 2})
	lead(c, at(1), 1, "L", 0)
	lead(c, at(1), 2, "L", 5) // 5 grid units apart, radius 2
	beatBoth(c, at(1.5), at(6.0), 1, 2, "L")
	c.Finish(at(6))
	if got := violationsOf(c, DualLeader); len(got) != 0 {
		t.Errorf("out-of-range pair flagged: %v", got)
	}
}

func TestDualLeaderZombieExempt(t *testing.T) {
	c := New(Config{})
	lead(c, at(1), 1, "L", 0)
	lead(c, at(1), 2, "L", 1)
	// Only mote 2 keeps heartbeating; mote 1 is a silent zombie whose
	// members noticed the silence long ago.
	for seq, tm := uint64(1), at(1.5); tm <= at(6); tm += hb {
		beat(c, tm, 2, "L", seq)
		seq++
	}
	c.Finish(at(6))
	if got := violationsOf(c, DualLeader); len(got) != 0 {
		t.Errorf("zombie leader pair flagged: %v", got)
	}
}

func TestDualLeaderFailedLeaderExempt(t *testing.T) {
	c := New(Config{})
	lead(c, at(1), 1, "L", 0)
	lead(c, at(1), 2, "L", 1)
	c.Emit(obs.Event{At: at(1.2), Type: obs.EvMoteFailed, Mote: 1})
	beatBoth(c, at(1.5), at(6.0), 1, 2, "L")
	c.Finish(at(6))
	if got := violationsOf(c, DualLeader); len(got) != 0 {
		t.Errorf("crashed leader pair flagged: %v", got)
	}
}

func TestDualLeaderPartitionExemptAndHealRestartsGrace(t *testing.T) {
	c := New(Config{Partitions: []PartitionWindow{{X: 3, At: 0, Until: at(10)}}})
	lead(c, at(1), 1, "L", 0)
	lead(c, at(1), 2, "L", 5)
	// Severed split-brain: no violation however long it persists.
	beatBoth(c, at(1.5), at(9.5), 1, 2, "L")
	if got := violationsOf(c, DualLeader); len(got) != 0 {
		t.Fatalf("split-brain during partition flagged: %v", got)
	}
	// After the heal the grace clock restarts at 10s: still clean at
	// 12.9s, a violation once the overlap reaches 3s.
	beatBoth(c, at(10), at(12.9), 1, 2, "L")
	if got := violationsOf(c, DualLeader); len(got) != 0 {
		t.Fatalf("flagged before post-heal grace elapsed: %v", got)
	}
	beatBoth(c, at(13), at(13.5), 1, 2, "L")
	if got := violationsOf(c, DualLeader); len(got) != 1 {
		t.Errorf("post-heal persistent dual leadership: %d violations, want 1", len(got))
	}
}

func TestDualLeaderSameSideOfPartitionStillFlagged(t *testing.T) {
	c := New(Config{Partitions: []PartitionWindow{{X: 3, At: 0, Until: at(20)}}})
	lead(c, at(1), 1, "L", 4)
	lead(c, at(1), 2, "L", 5) // both east of the cut: partition irrelevant
	beatBoth(c, at(1.5), at(6.0), 1, 2, "L")
	if got := violationsOf(c, DualLeader); len(got) != 1 {
		t.Errorf("same-side dual leadership under partition: %d violations, want 1", len(got))
	}
}

// join makes mote a member of label under the given leader, with a
// proven heartbeat re-arm at rearm (the leader's send precedes it by 1ms).
func join(c *Checker, tm time.Duration, mote, leader int, label string) {
	c.Emit(obs.Event{At: tm, Type: obs.EvLabelJoined, Mote: mote, Label: label})
}

func rearm(c *Checker, tm time.Duration, mote, leader int, label string, seq uint64) {
	beat(c, tm-time.Millisecond, leader, label, seq)
	hear(c, tm, mote, leader, leader)
}

// forward emits mote's rebroadcast of origin's heartbeat seq of label.
func forward(c *Checker, tm time.Duration, mote, origin int, label string, seq uint64) {
	c.Emit(obs.Event{At: tm, Type: obs.EvHeartbeatForwarded, Mote: mote, Peer: origin, Label: label, Seq: seq})
}

// hear emits mote's reception of a heartbeat frame sent by peer. Like the
// radio's frame_received, it carries the frame's correlation origin: the
// leader whose heartbeat it is, which forwards preserve.
func hear(c *Checker, tm time.Duration, mote, peer, origin int) {
	c.Emit(obs.Event{At: tm, Type: obs.EvFrameReceived, Mote: mote, Peer: peer, Origin: origin,
		Kind: trace.KindHeartbeat})
}

func TestTakeoverSilenceViolation(t *testing.T) {
	c := New(Config{})
	lead(c, at(0.5), 1, "L", 0)
	join(c, at(1), 3, 1, "L")
	rearm(c, at(2), 3, 1, "L", 1)
	// Timer fires 0.5s after a proven re-arm: impossibly early (min 1.05s).
	c.Emit(obs.Event{At: at(2.5), Type: obs.EvReceiveTimerFired, Mote: 3, Label: "L"})
	if got := violationsOf(c, TakeoverSilence); len(got) != 1 {
		t.Fatalf("takeover-silence violations = %d (%v), want 1", len(got), got)
	}
}

func TestTakeoverSilenceLegitimateFiring(t *testing.T) {
	c := New(Config{})
	lead(c, at(0.5), 1, "L", 0)
	join(c, at(1), 3, 1, "L")
	rearm(c, at(2), 3, 1, "L", 1)
	// 1.2s of silence exceeds the 1.05s minimum: legitimate.
	c.Emit(obs.Event{At: at(3.2), Type: obs.EvReceiveTimerFired, Mote: 3, Label: "L"})
	if got := violationsOf(c, TakeoverSilence); len(got) != 0 {
		t.Errorf("legitimate takeover flagged: %v", got)
	}
}

func TestTakeoverSilenceDuplicateCopyDoesNotRearm(t *testing.T) {
	c := New(Config{})
	lead(c, at(0.5), 1, "L", 0)
	join(c, at(1), 3, 1, "L")
	rearm(c, at(2), 3, 1, "L", 1)
	// A duplicated copy of the same seq=1 heartbeat arrives later; the
	// protocol dedups it, so it must not shrink the measured silence.
	c.Emit(obs.Event{At: at(2.5), Type: obs.EvFrameReceived, Mote: 3, Peer: 1, Origin: 1,
		Kind: trace.KindHeartbeat})
	c.Emit(obs.Event{At: at(3.2), Type: obs.EvReceiveTimerFired, Mote: 3, Label: "L"})
	if got := violationsOf(c, TakeoverSilence); len(got) != 0 {
		t.Errorf("dup heartbeat copy shrank measured silence: %v", got)
	}
	// Control: a genuinely fresh seq=2 re-arm at 2.5s makes the same 3.2s
	// firing an early fire.
	c2 := New(Config{})
	lead(c2, at(0.5), 1, "L", 0)
	join(c2, at(1), 3, 1, "L")
	rearm(c2, at(2), 3, 1, "L", 1)
	rearm(c2, at(2.5), 3, 1, "L", 2)
	c2.Emit(obs.Event{At: at(3.2), Type: obs.EvReceiveTimerFired, Mote: 3, Label: "L"})
	if got := violationsOf(c2, TakeoverSilence); len(got) != 1 {
		t.Errorf("fresh-seq re-arm not honored: %d violations, want 1", len(got))
	}
}

// TestTakeoverSilenceCrossLabelFirstCopy: the protocol dedups a
// heartbeat before any role logic, so the first copy of label B's
// heartbeat counts as seen even though mote 3 followed label A when it
// came. That copy makes mote 3 join B; a second copy, relayed later,
// re-arms nothing.
func TestTakeoverSilenceCrossLabelFirstCopy(t *testing.T) {
	stream := func(relayedSeq uint64) *Checker {
		c := New(Config{})
		lead(c, at(0.5), 1, "A", 0)
		lead(c, at(0.5), 6, "B", 5)
		join(c, at(1), 3, 1, "A")
		rearm(c, at(2), 3, 1, "A", 1)
		beat(c, at(6.999), 6, "B", 1)
		hear(c, at(7), 3, 6, 6)
		join(c, at(7), 3, 6, "B")
		if relayedSeq > 1 {
			beat(c, at(7.04), 6, "B", relayedSeq)
		}
		forward(c, at(7.05), 7, 6, "B", relayedSeq)
		hear(c, at(7.08), 3, 7, 6)
		c.Emit(obs.Event{At: at(8.1), Type: obs.EvReceiveTimerFired, Mote: 3, Label: "B"})
		return c
	}
	// 1.1s after the join: legitimate.
	if got := violationsOf(stream(1), TakeoverSilence); len(got) != 0 {
		t.Errorf("relayed duplicate of a first copy heard under another label re-armed: %v", got)
	}
	// Control: a relayed fresh seq 2 re-arms at 7.08s, so the 8.1s firing
	// is 1.02s after it, early.
	if got := violationsOf(stream(2), TakeoverSilence); len(got) != 1 {
		t.Errorf("fresh relayed heartbeat: %d violations, want 1", len(got))
	}
}

// TestTakeoverSilenceSendsOnAirOutOfOrder: mote 56 queues its own heartbeat
// of L, then a forward of mote 80's heartbeat of M, but its radio puts the
// forward on air first. Each reception is credited by the frame's
// correlation origin, not to the newest send, so mote 32's later relay of
// 56's heartbeat is a duplicate.
func TestTakeoverSilenceSendsOnAirOutOfOrder(t *testing.T) {
	stream := func(relayedSeq uint64) *Checker {
		c := New(Config{})
		lead(c, at(0.5), 56, "L", 0)
		lead(c, at(0.5), 80, "M", 9)
		join(c, at(1), 33, 56, "L")
		beat(c, at(10.052), 56, "L", 5)
		forward(c, at(10.069), 56, 80, "M", 3)
		hear(c, at(10.075), 33, 56, 80) // the forward, on air first
		hear(c, at(10.08), 33, 56, 56)  // 56's own heartbeat
		if relayedSeq > 5 {
			beat(c, at(10.12), 56, "L", relayedSeq)
		}
		forward(c, at(10.13), 32, 56, "L", relayedSeq)
		hear(c, at(10.1355), 33, 32, 56)
		c.Emit(obs.Event{At: at(11.1548), Type: obs.EvReceiveTimerFired, Mote: 33, Label: "L"})
		return c
	}
	// 1.0748s after 56's own heartbeat: legitimate.
	if got := violationsOf(stream(5), TakeoverSilence); len(got) != 0 {
		t.Errorf("relayed duplicate re-armed after an out-of-order reception: %v", got)
	}
	// Control: a relayed fresh seq 6 re-arms at 10.1355s, 1.0193s before
	// the firing.
	if got := violationsOf(stream(6), TakeoverSilence); len(got) != 1 {
		t.Errorf("fresh relayed heartbeat: %d violations, want 1", len(got))
	}
}

func TestTakeoverSilenceFaultWindowExempt(t *testing.T) {
	c := New(Config{})
	lead(c, at(0.5), 1, "L", 0)
	join(c, at(1), 3, 1, "L")
	rearm(c, at(2), 3, 1, "L", 1)
	// A crash-restore between re-arm and firing may have swallowed the
	// dispatch; the early firing is unprovable.
	c.Emit(obs.Event{At: at(2.1), Type: obs.EvMoteFailed, Mote: 3})
	c.Emit(obs.Event{At: at(2.2), Type: obs.EvMoteRestored, Mote: 3})
	c.Emit(obs.Event{At: at(2.5), Type: obs.EvReceiveTimerFired, Mote: 3, Label: "L"})
	if got := violationsOf(c, TakeoverSilence); len(got) != 0 {
		t.Errorf("faulted mote's early fire flagged: %v", got)
	}
}

func TestReportAfterTeardown(t *testing.T) {
	c := New(Config{})
	lead(c, at(1), 1, "L", 0)
	join(c, at(1.2), 3, 1, "L")
	c.Emit(obs.Event{At: at(2), Type: obs.EvLabelDeleted, Mote: 1, Label: "L"})
	// 1.5s after teardown: within the 2.155s notice grace.
	c.Emit(obs.Event{At: at(3.5), Type: obs.EvFrameSent, Mote: 3, Kind: trace.KindReading})
	if got := violationsOf(c, ReportAfterTeardown); len(got) != 0 {
		t.Fatalf("report within teardown grace flagged: %v", got)
	}
	// 3s after teardown: the member's receive timer must long since have
	// fired and ended the membership.
	c.Emit(obs.Event{At: at(5), Type: obs.EvFrameSent, Mote: 3, Kind: trace.KindReading})
	if got := violationsOf(c, ReportAfterTeardown); len(got) != 1 {
		t.Errorf("late report after teardown: %d violations, want 1", len(got))
	}
}

func TestReportAfterTeardownRestoredMemberExempt(t *testing.T) {
	c := New(Config{})
	lead(c, at(1), 1, "L", 0)
	join(c, at(1.2), 3, 1, "L")
	c.Emit(obs.Event{At: at(2), Type: obs.EvLabelDeleted, Mote: 1, Label: "L"})
	// The member crash-restores after the teardown: its receive timer is
	// dead and its ticker resumes — a known protocol wart, not a finding.
	c.Emit(obs.Event{At: at(2.5), Type: obs.EvMoteFailed, Mote: 3})
	c.Emit(obs.Event{At: at(3), Type: obs.EvMoteRestored, Mote: 3})
	c.Emit(obs.Event{At: at(6), Type: obs.EvFrameSent, Mote: 3, Kind: trace.KindReading})
	if got := violationsOf(c, ReportAfterTeardown); len(got) != 0 {
		t.Errorf("restored zombie member flagged: %v", got)
	}
}

func TestReportCadence(t *testing.T) {
	c := New(Config{ReportPeriod: 900 * time.Millisecond}) // bound = 900ms + 950ms
	lead(c, at(0.5), 1, "L", 0)
	join(c, at(1), 3, 1, "L")
	c.Emit(obs.Event{At: at(2), Type: obs.EvFrameSent, Mote: 3, Kind: trace.KindReading})
	c.Emit(obs.Event{At: at(2.9), Type: obs.EvFrameSent, Mote: 3, Kind: trace.KindReading})
	if got := violationsOf(c, ReportCadence); len(got) != 0 {
		t.Fatalf("on-cadence reports flagged: %v", got)
	}
	// 2.5s gap exceeds Pe + slack = 1.85s.
	c.Emit(obs.Event{At: at(5.4), Type: obs.EvFrameSent, Mote: 3, Kind: trace.KindReading})
	if got := violationsOf(c, ReportCadence); len(got) != 1 {
		t.Errorf("stalled cadence: %d violations, want 1", len(got))
	}
}

func TestReportCadenceDisabledWithoutPeriod(t *testing.T) {
	c := New(Config{})
	lead(c, at(0.5), 1, "L", 0)
	join(c, at(1), 3, 1, "L")
	c.Emit(obs.Event{At: at(2), Type: obs.EvFrameSent, Mote: 3, Kind: trace.KindReading})
	c.Emit(obs.Event{At: at(20), Type: obs.EvFrameSent, Mote: 3, Kind: trace.KindReading})
	if got := violationsOf(c, ReportCadence); len(got) != 0 {
		t.Errorf("cadence flagged with ReportPeriod=0: %v", got)
	}
}

func TestDirectoryStale(t *testing.T) {
	c := New(Config{})
	lead(c, at(1), 1, "L", 0)
	c.Emit(obs.Event{At: at(2), Type: obs.EvDirectoryUpdated, Label: "L", Cause: "register"})
	if got := violationsOf(c, DirectoryStale); len(got) != 0 {
		t.Fatalf("live-label registration flagged: %v", got)
	}
	// A label no mote ever led.
	c.Emit(obs.Event{At: at(2.5), Type: obs.EvDirectoryUpdated, Label: "phantom", Cause: "register"})
	if got := violationsOf(c, DirectoryStale); len(got) != 1 {
		t.Fatalf("phantom-label registration: %d violations, want 1", len(got))
	}
	// A registration long after the label lost its last leader.
	c.Emit(obs.Event{At: at(3), Type: obs.EvLabelDeleted, Mote: 1, Label: "L"})
	c.Emit(obs.Event{At: at(5), Type: obs.EvDirectoryUpdated, Label: "L", Cause: "register"})
	if got := violationsOf(c, DirectoryStale); len(got) != 1 {
		t.Fatalf("registration within directory grace flagged: %v", violationsOf(c, DirectoryStale))
	}
	c.Emit(obs.Event{At: at(7), Type: obs.EvDirectoryUpdated, Label: "L", Cause: "register"})
	if got := violationsOf(c, DirectoryStale); len(got) != 2 {
		t.Errorf("stale registration past grace: %d violations, want 2", len(got))
	}
}

func TestCheckerEmptyRun(t *testing.T) {
	c := New(Config{})
	c.Finish(at(60))
	if n := c.Count(); n != 0 {
		t.Errorf("empty run produced %d violations", n)
	}
	if c.Events() != 0 {
		t.Errorf("empty run counted events")
	}
}

func TestViolationRetentionCap(t *testing.T) {
	c := New(Config{MaxViolations: 2})
	lead(c, at(1), 1, "L", 0)
	for i := 0; i < 5; i++ {
		c.Emit(obs.Event{At: at(2), Type: obs.EvDirectoryUpdated, Label: "phantom", Cause: "register"})
	}
	if got := len(c.Violations()); got != 2 {
		t.Errorf("retained %d violations, want cap 2", got)
	}
	if c.Count() != 5 {
		t.Errorf("Count() = %d, want 5", c.Count())
	}
}
