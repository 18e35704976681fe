package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

// unescapeHelp inverts the HELP-text escaping of the exposition format.
func unescapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\n`, "\n")
	return strings.ReplaceAll(s, `\\`, `\`)
}

// unescapeLabel inverts label-value escaping.
func unescapeLabel(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(s[i+1])
			}
			i++
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// TestPromExpositionEscapingRoundTrip feeds hostile HELP text and label
// values through WriteProm and recovers them by parsing the scrape
// output with the format's escaping rules.
func TestPromExpositionEscapingRoundTrip(t *testing.T) {
	help := "Path C:\\tmp with \"quotes\"\nand a second line."
	label := `ctx "A"` + "\n" + `B\C`

	reg := NewRegistry()
	reg.Counter("weird_total", help).Add(7)
	reg.CounterVec("vec_total", help, "type").With(label).Add(3)

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	// No raw newline may survive inside a HELP line or a label value:
	// every output line must be a comment, a sample, or blank.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case line == "", strings.HasPrefix(line, "# "):
		default:
			if !strings.Contains(line, " ") {
				t.Errorf("malformed sample line %q", line)
			}
		}
	}

	// Round-trip the HELP text.
	var gotHelp string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP weird_total "); ok {
			gotHelp = unescapeHelp(rest)
		}
	}
	if gotHelp != help {
		t.Errorf("HELP round trip:\n got %q\nwant %q", gotHelp, help)
	}

	// Round-trip the label value from the sample line.
	start := strings.Index(out, `vec_total{type="`)
	if start < 0 {
		t.Fatalf("vec sample missing from exposition:\n%s", out)
	}
	rest := out[start+len(`vec_total{type="`):]
	end := -1
	for i := 0; i < len(rest); i++ {
		if rest[i] == '\\' {
			i++
			continue
		}
		if rest[i] == '"' {
			end = i
			break
		}
	}
	if end < 0 {
		t.Fatalf("unterminated label value in %q", rest)
	}
	if got := unescapeLabel(rest[:end]); got != label {
		t.Errorf("label round trip:\n got %q\nwant %q", got, label)
	}
	if !strings.HasSuffix(strings.TrimSpace(rest[end:]), `"} 3`) {
		t.Errorf("sample value malformed after label: %q", rest[end:])
	}
}

// TestRegistryCollectorRunsAtScrape: collectors registered with
// AddCollector run on WriteProm and Snapshot, and may themselves touch
// the registry (gauge refresh) without deadlocking.
func TestRegistryCollectorRunsAtScrape(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("fresh", "Refreshed at scrape.")
	calls := 0
	reg.AddCollector(func() {
		calls++
		g.Set(float64(calls))
	})

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fresh 1") {
		t.Errorf("collector did not refresh gauge before scrape:\n%s", buf.String())
	}
	snap := reg.Snapshot()
	if calls != 2 {
		t.Fatalf("collector calls = %d, want 2 (WriteProm + Snapshot)", calls)
	}
	if snap["fresh"] != 2.0 {
		t.Errorf("snapshot gauge = %v, want 2", snap["fresh"])
	}
}

// TestRuntimeGaugesReportLiveProcess: the runtime gauges produce sane,
// scrape-time values for this very test process.
func TestRuntimeGaugesReportLiveProcess(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeGauges(reg)
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		vals[name] = f
	}
	if vals["go_goroutines"] < 1 {
		t.Errorf("go_goroutines = %v, want >= 1", vals["go_goroutines"])
	}
	if vals["go_heap_objects_bytes"] <= 0 {
		t.Errorf("go_heap_objects_bytes = %v, want > 0", vals["go_heap_objects_bytes"])
	}
	for _, name := range []string{"go_gc_pause_p99_seconds", "go_sched_latency_p99_seconds"} {
		if v, ok := vals[name]; !ok || v < 0 {
			t.Errorf("%s = %v (present=%v), want >= 0", name, v, ok)
		}
	}
}

// --- MetricsSink edge cases ---

func at(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }

// sinkHistograms fetches the handover-latency and leader-tenure
// histograms a MetricsSink registered on reg by name, as a scrape would.
func sinkHistograms(t *testing.T, reg *Registry) (handover, tenure *Histogram) {
	t.Helper()
	const handoverName, tenureName = "envirotrack_handover_latency_seconds", "envirotrack_leader_tenure_seconds"
	snap := reg.Snapshot()
	for _, name := range []string{handoverName, tenureName} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("registry has no %s", name)
		}
	}
	return reg.Histogram(handoverName, "", nil), reg.Histogram(tenureName, "", nil)
}

// TestMetricsSinkLeaderCrashMidTenure: a crashed leader emits no
// step-down; the tenure stays open until the takeover closes it, and the
// handover gap runs from the last heartbeat (not the crash).
func TestMetricsSinkLeaderCrashMidTenure(t *testing.T) {
	reg := NewRegistry()
	s := NewMetricsSink(reg)
	handover, tenure := sinkHistograms(t, reg)
	s.Emit(Event{Type: EvLabelCreated, Label: "L", Mote: 2, At: at(0)})
	s.Emit(Event{Type: EvHeartbeatSent, Label: "L", Mote: 2, At: at(3)})
	s.Emit(Event{Type: EvMoteFailed, Label: "L", Mote: 2, At: at(3.5)})
	s.Emit(Event{Type: EvLabelTakeover, Label: "L", Mote: 5, At: at(5)})
	if got := handover.Sum(); got != 2 {
		t.Errorf("handover gap = %v, want 2 (last heartbeat to takeover)", got)
	}
	if got := tenure.Sum(); got != 5 {
		t.Errorf("tenure = %v, want 5 (creation to takeover)", got)
	}
	if got := tenure.Count(); got != 1 {
		t.Errorf("tenure count = %d, want 1", got)
	}
}

// TestMetricsSinkRestartAfterRestore: deletion clears a label's state, so
// a mote_restored followed by re-creation starts fresh — the dead period
// must not leak into the new tenure or a phantom handover.
func TestMetricsSinkRestartAfterRestore(t *testing.T) {
	reg := NewRegistry()
	s := NewMetricsSink(reg)
	handover, tenure := sinkHistograms(t, reg)
	s.Emit(Event{Type: EvLabelCreated, Label: "L", Mote: 2, At: at(0)})
	s.Emit(Event{Type: EvHeartbeatSent, Label: "L", Mote: 2, At: at(1)})
	s.Emit(Event{Type: EvMoteFailed, Label: "L", Mote: 2, At: at(1.5)})
	s.Emit(Event{Type: EvLabelDeleted, Label: "L", Mote: 2, At: at(2)})
	s.Emit(Event{Type: EvMoteRestored, Mote: 2, At: at(60)})
	s.Emit(Event{Type: EvLabelCreated, Label: "L", Mote: 2, At: at(61)})
	s.Emit(Event{Type: EvLabelYield, Label: "L", Mote: 2, At: at(64)})
	if got := handover.Count(); got != 0 {
		t.Errorf("handovers = %d, want 0 (restart is not a takeover)", got)
	}
	if got, want := tenure.Sum(), 2.0+3.0; got != want {
		t.Errorf("tenure sum = %v, want %v (2s first life + 3s second)", got, want)
	}
}

// TestMetricsSinkInterleavedLabelsAcrossRuns: one sink shared by a
// parallel sweep keys state by (run, label), so interleaved event
// streams from different runs and labels never cross-contaminate.
func TestMetricsSinkInterleavedLabelsAcrossRuns(t *testing.T) {
	reg := NewRegistry()
	s := NewMetricsSink(reg)
	handover, tenure := sinkHistograms(t, reg)
	emit := func(run int64, label string, typ EventType, mote int, sec float64) {
		s.Emit(Event{Type: typ, Label: label, Mote: mote, Run: run, At: at(sec)})
	}
	// Three streams interleaved in arrival order, as a parallel sweep
	// would produce: (run 1, A), (run 1, B), (run 2, A).
	emit(1, "A", EvLabelCreated, 1, 0)
	emit(2, "A", EvLabelCreated, 9, 10)
	emit(1, "B", EvLabelCreated, 4, 2)
	emit(1, "A", EvHeartbeatSent, 1, 1)
	emit(2, "A", EvHeartbeatSent, 9, 12)
	emit(1, "B", EvHeartbeatSent, 4, 3)
	emit(1, "A", EvLabelTakeover, 2, 4)   // gap 3, tenure 4
	emit(2, "A", EvLabelTakeover, 8, 13)  // gap 1, tenure 3
	emit(1, "B", EvLabelTakeover, 5, 3.5) // gap 0.5, tenure 1.5

	if got := handover.Count(); got != 3 {
		t.Fatalf("handover count = %d, want 3", got)
	}
	if got, want := handover.Sum(), 3.0+1.0+0.5; got != want {
		t.Errorf("handover gaps sum = %v, want %v", got, want)
	}
	if got, want := tenure.Sum(), 4.0+3.0+1.5; got != want {
		t.Errorf("tenure sum = %v, want %v", got, want)
	}
}
