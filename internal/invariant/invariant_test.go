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

// join makes mote a member of label under the given leader.
func join(c *Checker, tm time.Duration, mote, leader int, label string) {
	c.Emit(obs.Event{At: tm, Type: obs.EvLabelJoined, Mote: mote, Label: label})
}

// rearm has leader send heartbeat seq of label 1ms before mote's manager
// hears it at tm.
func rearm(c *Checker, tm time.Duration, mote, leader int, label string, seq uint64) {
	beat(c, tm-time.Millisecond, leader, label, seq)
	hear(c, tm, mote, leader, label, seq)
}

// hear emits mote's manager handling heartbeat seq of label from its
// originating leader, as group.Manager's heartbeat_heard does for every
// copy, forwarded and duplicated ones included.
func hear(c *Checker, tm time.Duration, mote, origin int, label string, seq uint64) {
	c.Emit(obs.Event{At: tm, Type: obs.EvHeartbeatHeard, Mote: mote, Peer: origin, Label: label,
		Kind: trace.KindHeartbeat, Seq: seq})
}

// receive emits the radio's frame_received of a heartbeat frame origin
// sent, which reaches the mote's CPU queue, not yet its manager.
func receive(c *Checker, tm time.Duration, mote, origin int) {
	c.Emit(obs.Event{At: tm, Type: obs.EvFrameReceived, Mote: mote, Peer: origin, Origin: origin,
		Kind: trace.KindHeartbeat})
}

// fire emits mote's receive-timer firing for label.
func fire(c *Checker, tm time.Duration, mote int, label string) {
	c.Emit(obs.Event{At: tm, Type: obs.EvReceiveTimerFired, Mote: mote, Label: label})
}

func TestTakeoverSilenceViolation(t *testing.T) {
	c := New(Config{})
	lead(c, at(0.5), 1, "L", 0)
	join(c, at(1), 3, 1, "L")
	rearm(c, at(2), 3, 1, "L", 1)
	// Timer fires 0.5s after a heard heartbeat: impossibly early (min 1.05s).
	fire(c, at(2.5), 3, "L")
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
	fire(c, at(3.2), 3, "L")
	if got := violationsOf(c, TakeoverSilence); len(got) != 0 {
		t.Errorf("legitimate takeover flagged: %v", got)
	}
}

func TestTakeoverSilenceDuplicateCopyDoesNotRearm(t *testing.T) {
	c := New(Config{})
	lead(c, at(0.5), 1, "L", 0)
	join(c, at(1), 3, 1, "L")
	rearm(c, at(2), 3, 1, "L", 1)
	// A duplicated copy of the same seq=1 heartbeat is heard later; the
	// protocol dedups it, so it must not shrink the measured silence.
	hear(c, at(2.5), 3, 1, "L", 1)
	fire(c, at(3.2), 3, "L")
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
	fire(c2, at(3.2), 3, "L")
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
		rearm(c, at(7), 3, 6, "B", 1)
		join(c, at(7), 3, 6, "B")
		if relayedSeq > 1 {
			beat(c, at(7.04), 6, "B", relayedSeq)
		}
		hear(c, at(7.08), 3, 6, "B", relayedSeq) // relayed by mote 7
		fire(c, at(8.1), 3, "B")
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

// TestTakeoverSilenceQueuedHeartbeat: leader 81's heartbeat reaches member
// 33's radio 0.4ms before 33's receive timer fires, but waits 8ms in the
// mote's CPU queue, so the manager hears it only after the firing. The
// timer ran its full course, which only the manager's clock shows.
func TestTakeoverSilenceQueuedHeartbeat(t *testing.T) {
	stream := func(heard time.Duration) *Checker {
		c := New(Config{})
		lead(c, at(0.5), 81, "L", 0)
		join(c, at(1), 33, 81, "L")
		rearm(c, at(10.78), 33, 81, "L", 20)
		beat(c, at(11.83), 81, "L", 21)
		receive(c, at(11.831626), 33, 81)
		if heard < at(11.832018) {
			hear(c, heard, 33, 81, "L", 21)
		}
		fire(c, at(11.832018), 33, "L")
		c.Emit(obs.Event{At: at(11.832018), Type: obs.EvLabelTakeover, Mote: 33, Label: "L", Pos: geom.Pt(1, 0)})
		if heard > at(11.832018) {
			hear(c, heard, 33, 81, "L", 21)
		}
		return c
	}
	// Heard 8ms after the reception: the firing came 1.052s after the last
	// heard heartbeat, legitimate.
	if got := violationsOf(stream(at(11.839626)), TakeoverSilence); len(got) != 0 {
		t.Errorf("heartbeat still queued at the firing re-armed: %v", got)
	}
	// Control: heard before the firing, the same firing is early.
	if got := violationsOf(stream(at(11.8318)), TakeoverSilence); len(got) != 1 {
		t.Errorf("heartbeat heard before the firing: %d violations, want 1", len(got))
	}
}

// TestTakeoverSilenceRadioReceptionDoesNotRearm: frame_received only
// says a frame reached the mote's CPU queue, so a stream of receptions
// without heartbeat_heard re-arms nothing.
func TestTakeoverSilenceRadioReceptionDoesNotRearm(t *testing.T) {
	stream := func(heard bool) *Checker {
		c := New(Config{})
		lead(c, at(0.5), 1, "L", 0)
		join(c, at(1), 3, 1, "L")
		for seq, tm := uint64(1), at(1.5); tm <= at(3); tm += hb {
			beat(c, tm-time.Millisecond, 1, "L", seq)
			receive(c, tm, 3, 1)
			if heard {
				hear(c, tm, 3, 1, "L", seq)
			}
			seq++
		}
		fire(c, at(3.1), 3, "L")
		return c
	}
	// 2.1s after the join and no heard heartbeat since: legitimate.
	if got := violationsOf(stream(false), TakeoverSilence); len(got) != 0 {
		t.Errorf("radio receptions re-armed the timer: %v", got)
	}
	// Control: the same heartbeats heard make the 3.1s firing early.
	if got := violationsOf(stream(true), TakeoverSilence); len(got) != 1 {
		t.Errorf("heard heartbeats: %d violations, want 1", len(got))
	}
}

// TestTakeoverSilenceRelinquishRearms: a member's manager re-arms its
// receive timer on a relinquish of its own label, and only of its own.
func TestTakeoverSilenceRelinquishRearms(t *testing.T) {
	stream := func(label string) *Checker {
		c := New(Config{})
		lead(c, at(0.5), 1, "L", 0)
		join(c, at(1), 3, 1, "L")
		c.Emit(obs.Event{At: at(1.5), Type: obs.EvHeartbeatHeard, Mote: 3, Peer: 1, Label: label,
			Kind: trace.KindRelinquish})
		fire(c, at(2.1), 3, "L")
		return c
	}
	if got := violationsOf(stream("L"), TakeoverSilence); len(got) != 1 {
		t.Errorf("same-label relinquish: %d violations, want 1", len(got))
	}
	if got := violationsOf(stream("M"), TakeoverSilence); len(got) != 0 {
		t.Errorf("other label's relinquish re-armed: %v", got)
	}
}

// TestTakeoverSilenceFaultWindowExempt: a crash clears the member's re-arm
// record, since the restored mote's timer state is not the one the record
// dated; the first heartbeat heard after the restore re-arms it again.
func TestTakeoverSilenceFaultWindowExempt(t *testing.T) {
	stream := func(heardAfterRestore bool) *Checker {
		c := New(Config{})
		lead(c, at(0.5), 1, "L", 0)
		join(c, at(1), 3, 1, "L")
		rearm(c, at(2), 3, 1, "L", 1)
		c.Emit(obs.Event{At: at(2.1), Type: obs.EvMoteFailed, Mote: 3})
		c.Emit(obs.Event{At: at(2.2), Type: obs.EvMoteRestored, Mote: 3})
		if heardAfterRestore {
			rearm(c, at(2.3), 3, 1, "L", 2)
		}
		fire(c, at(2.5), 3, "L")
		return c
	}
	if got := violationsOf(stream(false), TakeoverSilence); len(got) != 0 {
		t.Errorf("re-arm from before the crash checked: %v", got)
	}
	// Control: a heartbeat heard after the restore is checked again.
	if got := violationsOf(stream(true), TakeoverSilence); len(got) != 1 {
		t.Errorf("re-arm after the restore: %d violations, want 1", len(got))
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
