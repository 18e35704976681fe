package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"envirotrack"
	"envirotrack/internal/obs"
	"envirotrack/internal/trace"
)

// synthTrace builds a small JSONL trace: one delivered two-hop report,
// one report lost to collision, and a leadership takeover, across two
// runs.
func synthTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := envirotrack.NewJSONLSink(&buf)
	at := func(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }
	ev := func(sec float64, typ obs.EventType, mote int, mut func(*obs.Event)) {
		e := obs.Event{At: at(sec), Type: typ, Mote: mote, Run: 1, Label: "L1", Origin: 7, Kind: trace.KindReading}
		if mut != nil {
			mut(&e)
		}
		sink.Emit(e)
	}
	// Delivered span (run 1, seq 1): 7 -> 8 -> 9.
	ev(1.0, obs.EvReportSent, 7, func(e *obs.Event) { e.Seq = 1; e.Peer = 9 })
	ev(1.0, obs.EvFrameSent, 7, func(e *obs.Event) { e.Seq = 1; e.Frame = 100 })
	ev(1.1, obs.EvFrameReceived, 8, func(e *obs.Event) { e.Seq = 1; e.Frame = 100; e.Peer = 7 })
	ev(1.1, obs.EvRouteForward, 8, func(e *obs.Event) { e.Seq = 1 })
	ev(1.1, obs.EvFrameSent, 8, func(e *obs.Event) { e.Seq = 1; e.Frame = 101 })
	ev(1.2, obs.EvFrameReceived, 9, func(e *obs.Event) { e.Seq = 1; e.Frame = 101; e.Peer = 8 })
	ev(1.2, obs.EvRouteDelivered, 9, func(e *obs.Event) { e.Seq = 1; e.Peer = 7 })
	// Lost span (run 1, seq 2): collision on the only hop.
	ev(2.0, obs.EvReportSent, 7, func(e *obs.Event) { e.Seq = 2; e.Peer = 9 })
	ev(2.0, obs.EvFrameSent, 7, func(e *obs.Event) { e.Seq = 2; e.Frame = 102 })
	ev(2.1, obs.EvFrameLost, 9, func(e *obs.Event) { e.Seq = 2; e.Frame = 102; e.Peer = 7; e.Cause = "collision" })
	// Handover (run 1).
	ev(3.0, obs.EvHeartbeatSent, 7, func(e *obs.Event) { e.Seq = 5 })
	ev(5.0, obs.EvLabelTakeover, 8, nil)
	// A second run with its own delivered span, for -run filtering.
	ev(1.0, obs.EvReportSent, 3, func(e *obs.Event) { e.Run = 2; e.Origin = 3; e.Seq = 1; e.Peer = 4 })
	ev(1.5, obs.EvRouteDelivered, 4, func(e *obs.Event) { e.Run = 2; e.Origin = 3; e.Seq = 1; e.Peer = 3 })
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRunTextReport(t *testing.T) {
	var out bytes.Buffer
	err := run(config{
		format: "text", top: 5,
		input: bytes.NewReader(synthTrace(t)), name: "synth", stdout: &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"3 report spans", "1 handovers",
		"2/3 delivered",
		"collision", // root-cause table
		"7 -> 8",    // waterfall hop
		"leader 7 -> 8",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}
}

func TestRunJSONReportAndRunFilter(t *testing.T) {
	var out bytes.Buffer
	err := run(config{
		format: "json", top: 5,
		input: bytes.NewReader(synthTrace(t)), name: "synth", stdout: &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Summary.Spans != 3 || rep.Summary.Delivered != 2 || rep.Summary.Undelivered != 1 {
		t.Errorf("summary = %+v, want 3 spans, 2 delivered, 1 undelivered", rep.Summary)
	}
	if len(rep.Causes) != 1 || rep.Causes[0].Cause != "collision" || rep.Causes[0].Count != 1 {
		t.Errorf("root causes = %+v, want one collision", rep.Causes)
	}
	if len(rep.Slowest) != 2 {
		t.Fatalf("slowest = %+v, want the 2 delivered spans", rep.Slowest)
	}
	// Slowest first: run-2 span took 500ms, run-1 span 200ms.
	if rep.Slowest[0].Run != 2 || rep.Slowest[0].LatencyS != 0.5 {
		t.Errorf("slowest[0] = %+v, want run-2 span at 0.5s", rep.Slowest[0])
	}
	if len(rep.Slowest[1].Hops) != 2 || rep.Slowest[1].Hops[1].To != 9 {
		t.Errorf("waterfall hops = %+v, want 2 hops ending at 9", rep.Slowest[1].Hops)
	}
	if len(rep.Handovers) != 1 || rep.Handovers[0].GapS != 2 {
		t.Errorf("handovers = %+v, want one with a 2s gap", rep.Handovers)
	}

	// -run 2 restricts the analysis to the second run.
	out.Reset()
	err = run(config{
		format: "json", top: 5, run: 2,
		input: bytes.NewReader(synthTrace(t)), name: "synth", stdout: &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Spans != 1 || rep.Summary.Delivered != 1 || rep.Summary.Handovers != 0 {
		t.Errorf("run-filtered summary = %+v, want exactly run 2's span", rep.Summary)
	}
}

func TestRunRejectsCorruptTrace(t *testing.T) {
	var out bytes.Buffer
	err := run(config{
		format: "text", top: 5,
		input: strings.NewReader("{\"t\":1,\"ev\":\"bogus_event\"}\n"), name: "bad", stdout: &out,
	})
	if err == nil || !strings.Contains(err.Error(), "bad:1") {
		t.Fatalf("corrupt trace error = %v, want line-numbered failure", err)
	}
	if err := run(config{format: "yaml", input: strings.NewReader(""), stdout: &out}); err == nil {
		t.Fatal("unknown format accepted")
	}
	out.Reset()
	err = run(config{format: "text", top: -3, input: bytes.NewReader(synthTrace(t)), name: "synth", stdout: &out})
	if err == nil || !strings.Contains(err.Error(), "-top") || out.Len() != 0 {
		t.Fatalf("-top -3: err = %v with %d bytes of report, want an error naming -top and no report", err, out.Len())
	}
	// Zero still means no slowest-report waterfalls.
	if err := run(config{format: "text", top: 0, input: bytes.NewReader(synthTrace(t)), name: "synth", stdout: &out}); err != nil {
		t.Fatalf("-top 0: %v", err)
	}
}
