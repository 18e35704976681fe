package envirotrack_test

// End-to-end span contract, per the observability acceptance criteria:
// a nominal run yields a complete causal span for every delivered
// report, the chaos suite yields a root cause for every undelivered
// one, and a span set rebuilt offline from the JSONL trace matches the
// one assembled live.

import (
	"bytes"
	"testing"

	"envirotrack"
	"envirotrack/internal/eval"
)

// multiSink fans one event out to several sinks (the CLI composes sinks
// through a bus; tests need the raw fan-out without re-stamping runs).
type multiSink []envirotrack.EventSink

func (m multiSink) Emit(ev envirotrack.TraceEvent) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// validRootCauses is the full attribution vocabulary of SpanSink.
var validRootCauses = map[string]bool{
	"no_route": true, "ttl": true, "stale_leader": true, "cpu_overload": true,
	"collision": true, "random": true, "crashed_mote": true, "in_flight": true,
}

// checkSpans asserts the span contract over a set of reports: delivered
// spans are causally complete, undelivered spans are attributed.
func checkSpans(t *testing.T, reports []envirotrack.ReportSpan) (delivered, undelivered int) {
	t.Helper()
	for _, sp := range reports {
		if sp.Delivered {
			delivered++
			if sp.RootCause != "" {
				t.Errorf("delivered span %s/%d/%d has root cause %q", sp.Label, sp.Origin, sp.Seq, sp.RootCause)
			}
			if sp.Latency < 0 || sp.DeliveredAt < sp.SentAt {
				t.Errorf("span %s/%d/%d has negative latency: sent %v delivered %v", sp.Label, sp.Origin, sp.Seq, sp.SentAt, sp.DeliveredAt)
			}
			if len(sp.Hops) == 0 {
				t.Errorf("delivered span %s/%d/%d has no radio hops", sp.Label, sp.Origin, sp.Seq)
				continue
			}
			received := 0
			for _, h := range sp.Hops {
				if h.Outcome == "received" {
					received++
				}
			}
			if received == 0 {
				t.Errorf("delivered span %s/%d/%d has no received hop: %+v", sp.Label, sp.Origin, sp.Seq, sp.Hops)
			}
		} else {
			undelivered++
			if !validRootCauses[sp.RootCause] {
				t.Errorf("undelivered span %s/%d/%d has root cause %q, want one of %v",
					sp.Label, sp.Origin, sp.Seq, sp.RootCause, validRootCauses)
			}
		}
	}
	return delivered, undelivered
}

// TestSpansNominalRunCompleteAndMatchOffline runs the Figure 3 scenario
// with a live SpanSink and a JSONL trace attached, then rebuilds the
// spans offline from the trace (the ettrace path) and requires the two
// views to agree span for span.
func TestSpansNominalRunCompleteAndMatchOffline(t *testing.T) {
	live := envirotrack.NewSpanSink()
	var buf bytes.Buffer
	jsonl := envirotrack.NewJSONLSink(&buf)
	if _, err := eval.Run(&eval.Env{Sink: multiSink{live, jsonl}}, eval.Scenario{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}

	reports := live.Reports()
	if len(reports) == 0 {
		t.Fatal("nominal run produced no report spans")
	}
	delivered, _ := checkSpans(t, reports)
	if delivered == 0 {
		t.Fatal("nominal run delivered no reports")
	}

	// Offline reconstruction from the trace bytes.
	offline := envirotrack.NewSpanSink()
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		ev, err := envirotrack.ParseTraceEvent(line)
		if err != nil {
			t.Fatal(err)
		}
		offline.Emit(ev)
	}
	off := offline.Reports()
	if len(off) != len(reports) {
		t.Fatalf("offline rebuilt %d spans, live saw %d", len(off), len(reports))
	}
	for i := range reports {
		l, o := reports[i], off[i]
		if l.Label != o.Label || l.Origin != o.Origin || l.Seq != o.Seq ||
			l.Delivered != o.Delivered || l.RootCause != o.RootCause ||
			l.DeliveredTo != o.DeliveredTo || len(l.Hops) != len(o.Hops) ||
			l.Forwards != o.Forwards {
			t.Errorf("span %d diverges offline:\n live %+v\n file %+v", i, l, o)
		}
	}
	if lh, oh := live.Handovers(), offline.Handovers(); len(lh) != len(oh) {
		t.Errorf("offline rebuilt %d handovers, live saw %d", len(oh), len(lh))
	}
}

// TestChaosSpansAttributeEveryUndelivered runs the fault-matrix suite
// and requires a root-cause attribution for every report that did not
// make it.
func TestChaosSpansAttributeEveryUndelivered(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite in -short mode")
	}
	sink := envirotrack.NewSpanSink()
	if _, err := eval.RunChaos(&eval.Env{Sink: sink}, 1); err != nil {
		t.Fatal(err)
	}
	reports := sink.Reports()
	if len(reports) == 0 {
		t.Fatal("chaos suite produced no report spans")
	}
	delivered, undelivered := checkSpans(t, reports)
	if delivered == 0 {
		t.Error("chaos suite delivered nothing at all")
	}
	if undelivered == 0 {
		t.Error("chaos suite lost nothing — fault injection had no visible effect")
	}
}
