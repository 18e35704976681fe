package obs

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzParseEvent asserts the trace decoder's total-function contract:
// any line — ettrace reads arbitrary JSONL — decodes to an event or
// returns an error, never panics. A decoded event's numeric fields must
// survive a re-encode: a timestamp outside time.Duration's range has to
// be an error, not a silently wrapped instant. (String fields are left
// out: the exporter quotes only the names the simulator generates.)
func FuzzParseEvent(f *testing.F) {
	for _, s := range []string{
		``,
		`{}`,
		`{"t":1.234567,"ev":"frame_received","mote":8,"peer":7,"label":"tracker/0.1","ctx":"tracker","x":1.5,"y":-2.25,"kind":"reading","seq":42,"origin":7,"frame":9001,"bits":192,"run":3}`,
		`{"t":0.000000,"ev":"heartbeat_sent","mote":1}`,
		`{"t":3600.000000,"ev":"frame_lost","mote":2,"cause":"collision"}`,
		`{"t":5,"ev":"route_dropped","mote":4,"cause":"ttl"}`,
		`{"t":1,"ev":"no_such_event"}`,
		`{"t":"soon","ev":"heartbeat_sent"}`,
		`{"t":1e300,"ev":"heartbeat_sent"}`,
		`{"t":-1,"ev":"heartbeat_sent","mote":-5}`,
		`{"t":1,"ev":"heartbeat_sent","seq":-1}`,
		`{"t":1,"ev":"heartbeat_sent","label":"\u0007"}`,
		`[1,2,3]`,
		`{"t":1,"ev":"heartbeat_sent"`,
		`null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		ev, err := ParseEvent(line)
		if err != nil {
			if ev != (Event{}) {
				t.Fatalf("ParseEvent returned both %+v and error %v", ev, err)
			}
			return
		}
		var raw struct {
			T float64 `json:"t"`
		}
		if err := json.Unmarshal(line, &raw); err != nil {
			t.Fatalf("ParseEvent accepted %q, which is not JSON: %v", line, err)
		}
		if d := math.Abs(ev.At.Seconds() - raw.T); d > 1e-6*math.Max(1, math.Abs(raw.T)) {
			t.Fatalf("ParseEvent(%q): At = %v, %gs away from t", line, ev.At, d)
		}
		ev.Label, ev.CtxType, ev.Kind, ev.Cause = "", "", "", ""
		again, err := ParseEvent(appendEventJSON(nil, ev))
		if err != nil {
			t.Fatalf("re-encoded event %s does not decode: %v", appendEventJSON(nil, ev), err)
		}
		if again != ev {
			t.Fatalf("round trip of %q changed the event:\n%+v\n%+v", line, ev, again)
		}
	})
}
