package trace

import (
	"math"
	"strings"
	"testing"
	"time"

	"envirotrack/internal/geom"
)

func TestStatsCounters(t *testing.T) {
	var s Stats
	s.RecordSend(KindHeartbeat, 100)
	s.RecordSend(KindHeartbeat, 100)
	s.RecordSend(KindReading, 200)
	s.RecordReceive(KindHeartbeat)
	s.RecordLoss(KindHeartbeat, LossRandom)
	s.RecordLoss(KindHeartbeat, LossCollision)
	s.RecordLoss(KindReading, LossOverload)
	s.RecordUndelivered(KindReading)

	hb := s.Kind(KindHeartbeat)
	if hb.Sent != 2 || hb.Received != 1 || hb.LostRandom != 1 || hb.LostCollision != 1 {
		t.Errorf("heartbeat stats = %+v", hb)
	}
	rd := s.Kind(KindReading)
	if rd.Sent != 1 || rd.LostOverload != 1 || rd.Undelivered != 1 {
		t.Errorf("reading stats = %+v", rd)
	}
	if s.BitsSent != 400 {
		t.Errorf("BitsSent = %d, want 400", s.BitsSent)
	}
}

func TestStatsLossFraction(t *testing.T) {
	var s Stats
	if got := s.LossFraction(KindHeartbeat); got != 0 {
		t.Errorf("empty LossFraction = %v, want 0", got)
	}
	s.RecordReceive(KindHeartbeat)
	s.RecordReceive(KindHeartbeat)
	s.RecordReceive(KindHeartbeat)
	s.RecordLoss(KindHeartbeat, LossCollision)
	if got := s.LossFraction(KindHeartbeat); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("LossFraction = %v, want 0.25", got)
	}
	if got := s.LossFraction(KindRelinquish); got != 0 {
		t.Errorf("LossFraction on unseen kind = %v, want 0", got)
	}
}

func TestLinkUtilization(t *testing.T) {
	var s Stats
	s.RecordSend(KindHeartbeat, 50000) // 50 kbit over 2 seconds on a 50 kb/s link => 50%
	got := s.LinkUtilization(2*time.Second, 50000)
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("LinkUtilization = %v, want 0.5", got)
	}
	if s.LinkUtilization(0, 50000) != 0 {
		t.Error("zero runtime should give zero utilization")
	}
	if s.LinkUtilization(time.Second, 0) != 0 {
		t.Error("zero capacity should give zero utilization")
	}
}

func TestStatsKindsSorted(t *testing.T) {
	var s Stats
	s.RecordSend(KindTransport, 1)
	s.RecordSend(KindHeartbeat, 1)
	s.RecordSend(KindReading, 1)
	kinds := s.Kinds()
	for i := 1; i < len(kinds); i++ {
		if kinds[i-1] >= kinds[i] {
			t.Errorf("Kinds not sorted: %v", kinds)
		}
	}
}

func TestStatsSummaryContainsKinds(t *testing.T) {
	var s Stats
	s.RecordSend(KindHeartbeat, 64)
	s.RecordReceive(KindHeartbeat)
	sum := s.Summary()
	if !strings.Contains(sum, "heartbeat") || !strings.Contains(sum, "bits sent: 64") {
		t.Errorf("Summary missing expected content:\n%s", sum)
	}
}

func TestLossCauseString(t *testing.T) {
	tests := []struct {
		cause LossCause
		want  string
	}{
		{LossRandom, "random"},
		{LossCollision, "collision"},
		{LossOverload, "overload"},
		{LossCause(99), "LossCause(99)"},
	}
	for _, tt := range tests {
		if got := tt.cause.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.cause), got, tt.want)
		}
	}
}

func TestTrajectoryErrors(t *testing.T) {
	var tr Trajectory
	if tr.MeanError() != 0 || tr.MaxError() != 0 {
		t.Error("empty trajectory should have zero errors")
	}
	tr.Record(0, geom.Pt(0, 0), geom.Pt(0, 1))
	tr.Record(time.Second, geom.Pt(1, 0), geom.Pt(1, 3))
	if got := tr.MeanError(); math.Abs(got-2) > 1e-12 {
		t.Errorf("MeanError = %v, want 2", got)
	}
	if got := tr.MaxError(); math.Abs(got-3) > 1e-12 {
		t.Errorf("MaxError = %v, want 3", got)
	}
	if len(tr.Points) != 2 {
		t.Errorf("Points = %d, want 2", len(tr.Points))
	}
}

func TestLedgerSummarizeAllSuccess(t *testing.T) {
	var l Ledger
	l.Record(LabelEvent{At: 0, Type: LabelCreated, Label: "t1", CtxType: "tracker", Mote: 1})
	l.Record(LabelEvent{At: time.Second, Type: LabelRelinquish, Label: "t1", CtxType: "tracker", Mote: 2})
	l.Record(LabelEvent{At: 2 * time.Second, Type: LabelTakeover, Label: "t1", CtxType: "tracker", Mote: 3})
	s := l.Summarize("tracker")
	if s.Created != 1 || s.Takeovers != 1 || s.Relinquish != 1 {
		t.Errorf("summary = %+v", s)
	}
	if s.Successful != 2 || s.Failed != 0 {
		t.Errorf("success/fail = %d/%d, want 2/0", s.Successful, s.Failed)
	}
	if s.SuccessRate() != 1 {
		t.Errorf("SuccessRate = %v, want 1", s.SuccessRate())
	}
	if s.CoherenceViolations() != 0 {
		t.Errorf("CoherenceViolations = %d, want 0", s.CoherenceViolations())
	}
}

func TestLedgerSummarizeSpuriousLabel(t *testing.T) {
	var l Ledger
	l.Record(LabelEvent{Type: LabelCreated, Label: "t1", CtxType: "tracker"})
	l.Record(LabelEvent{Type: LabelTakeover, Label: "t1", CtxType: "tracker"})
	l.Record(LabelEvent{Type: LabelCreated, Label: "t2", CtxType: "tracker"}) // spurious
	s := l.Summarize("tracker")
	if s.Successful != 1 || s.Failed != 1 {
		t.Errorf("success/fail = %d/%d, want 1/1", s.Successful, s.Failed)
	}
	if got := s.SuccessRate(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("SuccessRate = %v, want 0.5", got)
	}
	if s.CoherenceViolations() != 1 {
		t.Errorf("CoherenceViolations = %d, want 1", s.CoherenceViolations())
	}
}

func TestLedgerSummarizeSuppressedLabel(t *testing.T) {
	var l Ledger
	l.Record(LabelEvent{Type: LabelCreated, Label: "t1", CtxType: "tracker"})
	l.Record(LabelEvent{Type: LabelCreated, Label: "t2", CtxType: "tracker"})
	l.Record(LabelEvent{Type: LabelDeleted, Label: "t2", CtxType: "tracker"}) // weight suppression recovered it
	s := l.Summarize("tracker")
	if s.Failed != 0 {
		t.Errorf("Failed = %d, want 0 after suppression", s.Failed)
	}
	if s.CoherenceViolations() != 0 {
		t.Errorf("CoherenceViolations = %d, want 0", s.CoherenceViolations())
	}
}

func TestLedgerIgnoresOtherContextTypes(t *testing.T) {
	var l Ledger
	l.Record(LabelEvent{Type: LabelCreated, Label: "f1", CtxType: "fire"})
	l.Record(LabelEvent{Type: LabelCreated, Label: "t1", CtxType: "tracker"})
	s := l.Summarize("tracker")
	if s.Created != 1 {
		t.Errorf("Created = %d, want 1", s.Created)
	}
}

func TestLedgerNoHandoversIsPerfect(t *testing.T) {
	var l Ledger
	l.Record(LabelEvent{Type: LabelCreated, Label: "t1", CtxType: "tracker"})
	s := l.Summarize("tracker")
	if s.SuccessRate() != 1 {
		t.Errorf("SuccessRate with no handovers = %v, want 1", s.SuccessRate())
	}
}

func TestLedgerDistinctAndLiveLabels(t *testing.T) {
	var l Ledger
	l.Record(LabelEvent{Type: LabelCreated, Label: "a", CtxType: "x"})
	l.Record(LabelEvent{Type: LabelCreated, Label: "b", CtxType: "x"})
	l.Record(LabelEvent{Type: LabelDeleted, Label: "a", CtxType: "x"})
	l.Record(LabelEvent{Type: LabelCreated, Label: "c", CtxType: "y"})
	if got := l.DistinctLabels("x"); got != 2 {
		t.Errorf("DistinctLabels(x) = %d, want 2", got)
	}
	live := l.LiveLabels("x")
	if len(live) != 1 || live[0] != "b" {
		t.Errorf("LiveLabels(x) = %v, want [b]", live)
	}
}

func TestLiveLabelsCountsATakeoverAfterDeletion(t *testing.T) {
	// Mote 4 deletes its label under weight suppression; its member 3,
	// which no longer hears it, takes the label over and leads it again.
	var l Ledger
	l.Record(LabelEvent{Type: LabelCreated, Label: "a", CtxType: "x", Mote: 1})
	l.Record(LabelEvent{Type: LabelCreated, Label: "b", CtxType: "x", Mote: 4})
	l.Record(LabelEvent{Type: LabelDeleted, Label: "b", CtxType: "x", Mote: 4})
	if live := l.LiveLabels("x"); len(live) != 1 || live[0] != "a" {
		t.Fatalf("LiveLabels after deletion = %v, want [a]", live)
	}
	l.Record(LabelEvent{Type: LabelTakeover, Label: "b", CtxType: "x", Mote: 3})
	if live := l.LiveLabels("x"); len(live) != 2 || live[0] != "a" || live[1] != "b" {
		t.Fatalf("LiveLabels after takeover = %v, want [a b]", live)
	}
	l.Record(LabelEvent{Type: LabelDeleted, Label: "b", CtxType: "x", Mote: 3})
	if live := l.LiveLabels("x"); len(live) != 1 || live[0] != "a" {
		t.Errorf("LiveLabels after second deletion = %v, want [a]", live)
	}
}

func TestLabelEventTypeString(t *testing.T) {
	tests := []struct {
		ty   LabelEventType
		want string
	}{
		{LabelCreated, "created"},
		{LabelTakeover, "takeover"},
		{LabelRelinquish, "relinquish"},
		{LabelYield, "yield"},
		{LabelDeleted, "deleted"},
		{LabelEventType(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.ty.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

// TestLedgerSummarizeDeletionsAndYieldsInterleaved covers the messy but
// realistic trace where spurious labels, suppressions, and yields overlap:
// three labels created, two suppressed by deletion, yields sprinkled
// between leadership changes. Deletions must offset the spurious-label
// failure count without ever driving it negative, and yields must count as
// neither success nor failure.
func TestLedgerSummarizeDeletionsAndYieldsInterleaved(t *testing.T) {
	var l Ledger
	sec := func(n int) time.Duration { return time.Duration(n) * time.Second }
	l.Record(LabelEvent{At: sec(0), Type: LabelCreated, Label: "t1", CtxType: "tracker", Mote: 1})
	l.Record(LabelEvent{At: sec(1), Type: LabelYield, Label: "t1", CtxType: "tracker", Mote: 2})
	l.Record(LabelEvent{At: sec(2), Type: LabelCreated, Label: "t2", CtxType: "tracker", Mote: 5})
	l.Record(LabelEvent{At: sec(3), Type: LabelTakeover, Label: "t1", CtxType: "tracker", Mote: 3})
	l.Record(LabelEvent{At: sec(4), Type: LabelDeleted, Label: "t2", CtxType: "tracker", Mote: 5})
	l.Record(LabelEvent{At: sec(5), Type: LabelCreated, Label: "t3", CtxType: "tracker", Mote: 7})
	l.Record(LabelEvent{At: sec(6), Type: LabelYield, Label: "t3", CtxType: "tracker", Mote: 8})
	l.Record(LabelEvent{At: sec(7), Type: LabelRelinquish, Label: "t1", CtxType: "tracker", Mote: 4})
	l.Record(LabelEvent{At: sec(8), Type: LabelDeleted, Label: "t3", CtxType: "tracker", Mote: 7})

	s := l.Summarize("tracker")
	if s.Created != 3 || s.Deleted != 2 || s.Yields != 2 {
		t.Fatalf("created/deleted/yields = %d/%d/%d, want 3/2/2", s.Created, s.Deleted, s.Yields)
	}
	if s.Takeovers != 1 || s.Relinquish != 1 {
		t.Fatalf("takeovers/relinquish = %d/%d, want 1/1", s.Takeovers, s.Relinquish)
	}
	// Both spurious labels were reabsorbed, so every attempted handover
	// (the takeover and the relinquish) succeeded.
	if s.Successful != 2 || s.Failed != 0 {
		t.Errorf("success/fail = %d/%d, want 2/0", s.Successful, s.Failed)
	}
	if s.CoherenceViolations() != 0 {
		t.Errorf("CoherenceViolations = %d, want 0", s.CoherenceViolations())
	}
	// Deletions beyond created-1 must clamp, not undercount failures.
	l.Record(LabelEvent{At: sec(9), Type: LabelDeleted, Label: "t1", CtxType: "tracker", Mote: 1})
	if s := l.Summarize("tracker"); s.Failed != 0 {
		t.Errorf("Failed = %d after extra deletion, want 0 (clamped)", s.Failed)
	}
	if live := l.LiveLabels("tracker"); len(live) != 0 {
		t.Errorf("LiveLabels = %v after all deletions, want none", live)
	}
	// StrictSuccessRate ignores the reabsorptions: 2 successes against 2
	// spurious creations.
	if got := l.Summarize("tracker").StrictSuccessRate(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("StrictSuccessRate = %v, want 0.5", got)
	}
}

// TestStrictSuccessRateZeroAttempts pins the no-attempt conventions: a run
// whose single label never changed leaders made zero handover attempts and
// must score a perfect 1, and an empty summary (no labels at all) must not
// divide by zero.
func TestStrictSuccessRateZeroAttempts(t *testing.T) {
	if got := (HandoverSummary{Created: 1}).StrictSuccessRate(); got != 1 {
		t.Errorf("StrictSuccessRate with one label, no handovers = %v, want 1", got)
	}
	if got := (HandoverSummary{}).StrictSuccessRate(); got != 1 {
		t.Errorf("StrictSuccessRate of empty summary = %v, want 1", got)
	}
	if got := (HandoverSummary{Created: 1}).SuccessRate(); got != 1 {
		t.Errorf("SuccessRate with no attempts = %v, want 1", got)
	}
}

// TestLinkUtilizationDegenerateInputs: zero or negative duration and zero
// or negative capacity must yield 0 utilization, not a division by zero.
func TestLinkUtilizationDegenerateInputs(t *testing.T) {
	var s Stats
	s.RecordSend(KindHeartbeat, 50_000)
	for _, tc := range []struct {
		name     string
		d        time.Duration
		capacity float64
	}{
		{"zero duration", 0, 50_000},
		{"negative duration", -time.Second, 50_000},
		{"zero capacity", time.Second, 0},
		{"negative capacity", time.Second, -1},
	} {
		if got := s.LinkUtilization(tc.d, tc.capacity); got != 0 {
			t.Errorf("%s: LinkUtilization = %v, want 0", tc.name, got)
		}
	}
	// Sanity: the same stats over a valid window are non-zero.
	if got := s.LinkUtilization(time.Second, 50_000); got != 1 {
		t.Errorf("valid window: LinkUtilization = %v, want 1", got)
	}
}
