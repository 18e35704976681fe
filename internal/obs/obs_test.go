package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/trace"
)

func TestNilBusIsInactiveAndSafe(t *testing.T) {
	var b *Bus
	if b.Active() {
		t.Fatal("nil bus reports active")
	}
	b.Emit(Event{Type: EvHeartbeatSent}) // must not panic
	b.SetRun(7)                          // must not panic
	if NewBus().Active() {
		t.Fatal("empty bus reports active")
	}
	if NewBus(nil, nil).Active() {
		t.Fatal("bus of nil sinks reports active")
	}
}

func TestBusStampsRunAndFansOut(t *testing.T) {
	a, b := NewCounterSink(), NewRingSink(4)
	bus := NewBus(a, b)
	bus.SetRun(42)
	bus.Emit(Event{Type: EvLabelCreated, Mote: 3})
	if got := a.Count(EvLabelCreated); got != 1 {
		t.Fatalf("counter sink got %d events, want 1", got)
	}
	evs := b.Events()
	if len(evs) != 1 || evs[0].Run != 42 {
		t.Fatalf("ring sink got %+v, want one event with Run=42", evs)
	}
}

// TestCounterSinkConcurrentEmit: tallies taken from concurrent emitters
// (and read while they run) match a map counted serially from the same
// streams. Run under -race, it also checks the sink needs no lock.
func TestCounterSinkConcurrentEmit(t *testing.T) {
	const emitters, perEmitter = 4, 5000
	stream := func(e, i int) EventType { return EventType((e*7 + i*i) % 256) }
	want := map[EventType]uint64{}
	for e := 0; e < emitters; e++ {
		for i := 0; i < perEmitter; i++ {
			want[stream(e, i)]++
		}
	}

	s := NewCounterSink()
	var wg sync.WaitGroup
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				s.Emit(Event{Type: stream(e, i)})
			}
		}()
	}
	wg.Add(1)
	go func() { // a reader racing the emitters
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = s.Counts()
			_ = s.Count(EvHeartbeatSent)
		}
	}()
	wg.Wait()

	got := s.Counts()
	if len(got) != len(want) {
		t.Errorf("Counts has %d types, want the %d non-zero ones", len(got), len(want))
	}
	for et := 0; et < 256; et++ {
		typ := EventType(et)
		if n := s.Count(typ); n != want[typ] || got[typ] != want[typ] {
			t.Errorf("type %d: Count %d, Counts %d, want %d", et, n, got[typ], want[typ])
		}
	}
}

func TestEventTypeNamesUniqueAndComplete(t *testing.T) {
	seen := map[string]EventType{}
	for et := EvHeartbeatSent; et <= EvRouteDropped; et++ {
		name := et.String()
		if strings.HasPrefix(name, "EventType(") {
			t.Fatalf("event type %d has no wire name", et)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("duplicate wire name %q for %d and %d", name, prev, et)
		}
		seen[name] = et
	}
	named := 0
	for _, n := range eventNames {
		if n != "" {
			named++
		}
	}
	if len(seen) != named {
		t.Fatalf("event types cover %d names, table has %d", len(seen), named)
	}
	if et := seen["heartbeat_heard"]; et != EvHeartbeatHeard {
		t.Fatalf("heartbeat_heard names event type %d, want EvHeartbeatHeard (%d)", et, EvHeartbeatHeard)
	}
}

func TestJSONLSinkEmitsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	bus := NewBus(s)
	bus.SetRun(9)
	bus.Emit(Event{
		At: 1500 * time.Millisecond, Type: EvFrameSent, Mote: 2, Peer: 5,
		Label: "L7", CtxType: "car", Pos: geom.Point{X: 1.25, Y: -3},
		Kind: trace.KindHeartbeat, Seq: 11, Bits: 256, Cause: "collision",
	})
	bus.Emit(Event{At: 2 * time.Second, Type: EvCPUOverload, Mote: 0})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("invalid JSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	first := lines[0]
	for k, want := range map[string]any{
		"t": 1.5, "ev": "frame_sent", "mote": 2.0, "peer": 5.0, "label": "L7",
		"ctx": "car", "x": 1.25, "y": -3.0, "kind": string(trace.KindHeartbeat),
		"seq": 11.0, "bits": 256.0, "cause": "collision", "run": 9.0,
	} {
		if got := first[k]; got != want {
			t.Errorf("field %q = %v, want %v", k, got, want)
		}
	}
	// Zero-valued sparse fields are omitted.
	second := lines[1]
	for _, k := range []string{"label", "ctx", "kind", "seq", "bits", "cause"} {
		if _, ok := second[k]; ok {
			t.Errorf("sparse field %q present on zero event", k)
		}
	}
}

func TestRingSinkWraps(t *testing.T) {
	s := NewRingSink(3)
	for i := 1; i <= 5; i++ {
		s.Emit(Event{Type: EvHeartbeatSent, Mote: i})
	}
	if s.Total() != 5 {
		t.Fatalf("Total = %d, want 5", s.Total())
	}
	evs := s.Events()
	if len(evs) != 3 || evs[0].Mote != 3 || evs[2].Mote != 5 {
		t.Fatalf("ring retained %+v, want motes 3,4,5 oldest-first", evs)
	}
}

func TestStatsSinkRebuildsCounters(t *testing.T) {
	var st trace.Stats
	s := NewStatsSink(&st)
	s.Emit(Event{Type: EvFrameSent, Kind: trace.KindHeartbeat, Bits: 100})
	s.Emit(Event{Type: EvFrameSent, Kind: trace.KindReading, Bits: 300})
	s.Emit(Event{Type: EvFrameReceived, Kind: trace.KindHeartbeat})
	s.Emit(Event{Type: EvFrameLost, Kind: trace.KindReading, Cause: "collision"})
	s.Emit(Event{Type: EvFrameUndelivered, Kind: trace.KindReading})
	s.Emit(Event{Type: EvCPUOverload, Kind: trace.KindHeartbeat})
	hb, data := st.Kind(trace.KindHeartbeat), st.Kind(trace.KindReading)
	if hb.Sent != 1 {
		t.Errorf("heartbeat sends = %d, want 1", hb.Sent)
	}
	if st.BitsSent != 400 {
		t.Errorf("BitsSent = %d, want 400", st.BitsSent)
	}
	if hb.Received != 1 {
		t.Errorf("heartbeat receives = %d, want 1", hb.Received)
	}
	if data.LostCollision != 1 {
		t.Errorf("reading collision losses = %d, want 1", data.LostCollision)
	}
	if data.Undelivered != 1 {
		t.Errorf("reading undelivered = %d, want 1", data.Undelivered)
	}
	if hb.LostOverload != 1 {
		t.Errorf("heartbeat overload losses = %d, want 1", hb.LostOverload)
	}
}

func TestRegistryPromExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("runs_total", "Completed runs.")
	c.Add(3)
	g := reg.Gauge("live_labels", "Labels alive now.")
	g.Set(2.5)
	h := reg.Histogram("latency_seconds", "Latency.", []float64{1, 5})
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(10)
	v := reg.CounterVec("events_total", "Events by type.", "type")
	v.With("b").Inc()
	v.With("a").Add(2)

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP runs_total Completed runs.\n# TYPE runs_total counter\nruns_total 3\n",
		"# TYPE live_labels gauge\nlive_labels 2.5\n",
		"# TYPE latency_seconds histogram\n",
		"latency_seconds_bucket{le=\"1\"} 1\n",
		"latency_seconds_bucket{le=\"5\"} 2\n",
		"latency_seconds_bucket{le=\"+Inf\"} 3\n",
		"latency_seconds_sum 13.5\n",
		"latency_seconds_count 3\n",
		"events_total{type=\"a\"} 2\n",
		"events_total{type=\"b\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
	// Registration order is preserved.
	if strings.Index(out, "runs_total") > strings.Index(out, "events_total") {
		t.Error("metrics not in registration order")
	}
	// Get-or-create returns the same instance; wrong type panics.
	if reg.Counter("runs_total", "") != c {
		t.Error("Counter did not return existing instance")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("re-registering counter as gauge did not panic")
			}
		}()
		reg.Gauge("runs_total", "")
	}()
}

func TestRegistrySnapshotShapes(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c", "").Add(2)
	reg.Gauge("g", "").Set(1.5)
	reg.Histogram("h", "", []float64{1}).Observe(0.5)
	reg.CounterVec("v", "", "k").With("x").Inc()
	snap := reg.Snapshot()
	if snap["c"] != uint64(2) || snap["g"] != 1.5 {
		t.Fatalf("scalar snapshot wrong: %+v", snap)
	}
	h := snap["h"].(map[string]any)
	if h["count"] != uint64(1) || h["sum"] != 0.5 {
		t.Fatalf("histogram snapshot wrong: %+v", h)
	}
	if snap["v"].(map[string]uint64)["x"] != 1 {
		t.Fatalf("vec snapshot wrong: %+v", snap["v"])
	}
	// Snapshot must be JSON-marshalable (expvar path).
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not marshalable: %v", err)
	}
}

func TestMetricsSinkHandoverAndTenure(t *testing.T) {
	reg := NewRegistry()
	s := NewMetricsSink(reg)
	handover, tenure := sinkHistograms(t, reg)
	at := func(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }
	// Label born at t=0, heartbeats until t=4, leader dies; takeover at t=5.5.
	s.Emit(Event{Type: EvLabelCreated, Label: "L1", At: at(0)})
	s.Emit(Event{Type: EvHeartbeatSent, Label: "L1", At: at(2)})
	s.Emit(Event{Type: EvHeartbeatSent, Label: "L1", At: at(4)})
	s.Emit(Event{Type: EvLabelTakeover, Label: "L1", At: at(5.5)})
	if got := handover.Count(); got != 1 {
		t.Fatalf("handover count = %d, want 1", got)
	}
	if got := handover.Sum(); got != 1.5 {
		t.Fatalf("handover latency = %vs, want 1.5", got)
	}
	if got := tenure.Sum(); got != 5.5 {
		t.Fatalf("first tenure = %vs, want 5.5", got)
	}
	// Deletion ends the second span at t=8.
	s.Emit(Event{Type: EvLabelDeleted, Label: "L1", At: at(8)})
	if got, want := tenure.Sum(), 5.5+2.5; got != want {
		t.Fatalf("tenure sum = %v, want %v", got, want)
	}
	if got := tenure.Count(); got != 2 {
		t.Fatalf("tenure count = %d, want 2", got)
	}
	// Per-type counter vector sees every event.
	if got := s.Events().Value("heartbeat_sent"); got != 2 {
		t.Fatalf("events_total{heartbeat_sent} = %d, want 2", got)
	}
	// Same label in a different run is independent state.
	s.Emit(Event{Type: EvLabelCreated, Label: "L1", Run: 1, At: at(100)})
	s.Emit(Event{Type: EvLabelYield, Label: "L1", Run: 1, At: at(101)})
	if got, want := tenure.Sum(), 5.5+2.5+1.0; got != want {
		t.Fatalf("tenure sum after run-1 yield = %v, want %v", got, want)
	}
}

func TestSamplerSeriesRenderAndJSON(t *testing.T) {
	vals := map[string]float64{"a": 0, "b": 10}
	sm := NewSampler(
		Probe{Name: "a", Sample: func() float64 { return vals["a"] }},
		Probe{Name: "b", Sample: func() float64 { return vals["b"] }},
	)
	sm.Sample(0)
	vals["a"], vals["b"] = 1.5, 20
	sm.Sample(5 * time.Second)
	s := sm.Series()
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if got := s.Column("a"); len(got) != 2 || got[1] != 1.5 {
		t.Fatalf("column a = %v", got)
	}
	if s.Column("missing") != nil {
		t.Fatal("missing column not nil")
	}
	out := s.Render()
	if !strings.Contains(out, "t_s") || !strings.Contains(out, "1.5") || !strings.Contains(out, "20") {
		t.Fatalf("render missing values:\n%s", out)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		T    []float64            `json:"t"`
		Cols map[string][]float64 `json:"cols"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("series JSON invalid: %v\n%s", err, raw)
	}
	if len(decoded.T) != 2 || decoded.T[1] != 5 {
		t.Fatalf("time column = %v", decoded.T)
	}
	if decoded.Cols["b"][1] != 20 {
		t.Fatalf("cols = %v", decoded.Cols)
	}
}
