package envirotrack

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"envirotrack/internal/obs"
	"envirotrack/internal/trace"
)

// runTracked drives one deterministic tracking scenario and returns the
// network; sinks (may be empty) are attached via an event bus.
func runTracked(t *testing.T, sinks ...EventSink) *Network {
	t.Helper()
	n := buildNet(t, WithEventBus(NewEventBus(sinks...)), WithDirectory())
	var reports []Point
	if err := n.AttachContextAll(trackerContext(100, &reports)); err != nil {
		t.Fatal(err)
	}
	n.AddTarget(&Target{
		Name: "tank", Kind: "vehicle",
		Traj:            Line{Start: Pt(0.5, 1), Dir: Vec(1, 0), Speed: 0.4},
		SignatureRadius: 1.6,
	})
	if err := n.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestTracingDoesNotPerturbRun pins the core observability guarantee:
// attaching sinks must not change a seeded run's protocol behaviour.
func TestTracingDoesNotPerturbRun(t *testing.T) {
	bare := runTracked(t)

	var buf bytes.Buffer
	jsonl := NewJSONLSink(&buf)
	reg := NewMetricsRegistry()
	traced := runTracked(t, jsonl, NewRingSink(64), NewMetricsSink(reg), NewCounterSink())
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}

	if got, want := traced.Stats().Summary(), bare.Stats().Summary(); got != want {
		t.Errorf("radio stats diverged with sinks attached:\n--- traced\n%s--- bare\n%s", got, want)
	}
	gotSum := traced.Ledger().Summarize("tracker")
	wantSum := bare.Ledger().Summarize("tracker")
	if !reflect.DeepEqual(gotSum, wantSum) {
		t.Errorf("ledger diverged with sinks attached: %+v vs %+v", gotSum, wantSum)
	}
	if buf.Len() == 0 {
		t.Fatal("JSONL sink captured nothing from a tracked run")
	}
}

// TestStatsSinkMatchesMedium proves the event stream carries the full
// radio accounting: a trace.Stats rebuilt purely from frame events must
// equal the one the medium and motes record directly.
func TestStatsSinkMatchesMedium(t *testing.T) {
	var rebuilt trace.Stats
	n := runTracked(t, obs.NewStatsSink(&rebuilt))
	direct := n.Stats()
	if direct.BitsSent == 0 {
		t.Fatal("scenario produced no traffic")
	}
	if got, want := rebuilt.Summary(), direct.Summary(); got != want {
		t.Errorf("stats rebuilt from events diverge from the medium's:\n--- rebuilt\n%s--- direct\n%s", got, want)
	}
}

func TestEventStreamCoversProtocolLayers(t *testing.T) {
	cs := NewCounterSink()
	runTracked(t, cs)
	counts := cs.Counts()
	for _, et := range []TraceEventType{
		obs.EvHeartbeatSent, obs.EvLabelCreated, obs.EvLabelJoined,
		obs.EvFrameSent, obs.EvFrameReceived, obs.EvDirectoryUpdated,
	} {
		if counts[et] == 0 {
			t.Errorf("no %v events from a tracked run (got %v)", et, counts)
		}
	}
}

// seriesColumns reads a series' column names, in order, from its JSON
// form.
func seriesColumns(t *testing.T, s *Series) []string {
	t.Helper()
	js, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cols json.RawMessage `json:"cols"`
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(doc.Cols))
	if _, err := dec.Token(); err != nil { // the object's '{'
		t.Fatal(err)
	}
	var names []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, tok.(string))
		var col json.RawMessage
		if err := dec.Decode(&col); err != nil {
			t.Fatal(err)
		}
	}
	return names
}

func TestStartSeriesSamplesHealth(t *testing.T) {
	n := buildNet(t)
	var reports []Point
	if err := n.AttachContextAll(trackerContext(100, &reports)); err != nil {
		t.Fatal(err)
	}
	n.AddTarget(&Target{
		Name: "tank", Kind: "vehicle",
		Traj:            Stationary{At: Pt(3.5, 1)},
		SignatureRadius: 1.6,
	})
	extra := SeriesProbe{Name: "now_s", Sample: func() float64 { return n.Now().Seconds() }}
	series := n.StartSeries(time.Second, extra)
	if err := n.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := series.Len(); got != 11 { // t=0 plus one per second
		t.Fatalf("series has %d samples, want 11", got)
	}
	if got, want := seriesColumns(t, series), []string{"live_labels", "group_size", "cpu_queue", "link_util", "now_s"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("columns = %v, want %v", got, want)
	}
	live := series.Column("live_labels")
	if live[len(live)-1] < 1 {
		t.Errorf("no live label at end of tracked run: %v", live)
	}
	group := series.Column("group_size")
	if group[len(group)-1] < 2 {
		t.Errorf("tracked group never formed: %v", group)
	}
	if nowCol := series.Column("now_s"); nowCol[10] != 10 {
		t.Errorf("extra probe column wrong: %v", nowCol)
	}
	if util := series.Column("link_util"); util[10] <= 0 {
		t.Errorf("link utilization never positive: %v", util)
	}
	// The table renders with a header and one row per sample.
	if rows := strings.Count(series.Render(), "\n"); rows != 12 {
		t.Errorf("rendered table has %d lines, want 12", rows)
	}
	if _, err := json.Marshal(series); err != nil {
		t.Fatalf("series JSON: %v", err)
	}
}
