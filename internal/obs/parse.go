package obs

import (
	"fmt"
	"math"
	"time"

	"encoding/json"

	"envirotrack/internal/geom"
	"envirotrack/internal/trace"
)

// eventTypeByName inverts eventNames once, for the JSONL decoder.
var eventTypeByName = func() map[string]EventType {
	m := make(map[string]EventType, len(eventNames))
	for t, n := range eventNames {
		if n != "" {
			m[n] = EventType(t)
		}
	}
	return m
}()

// eventJSON mirrors the field set appendEventJSON writes. Omitted sparse
// fields decode as their zero values, which is exactly how they were
// encoded.
type eventJSON struct {
	T      float64 `json:"t"`
	Ev     string  `json:"ev"`
	Mote   int     `json:"mote"`
	Peer   int     `json:"peer"`
	Label  string  `json:"label"`
	Ctx    string  `json:"ctx"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Kind   string  `json:"kind"`
	Seq    uint64  `json:"seq"`
	Origin int     `json:"origin"`
	Frame  uint64  `json:"frame"`
	Bits   int     `json:"bits"`
	Cause  string  `json:"cause"`
	Run    int64   `json:"run"`
}

// ParseEvent decodes one JSONL trace line (as written by JSONLSink) back
// into an Event. Timestamps are encoded at microsecond precision, so the
// decoded At is the encoded instant rounded to the nearest microsecond;
// every other field round-trips exactly. Unknown event names are an
// error so corrupted or foreign traces fail loudly.
func ParseEvent(line []byte) (Event, error) {
	var raw eventJSON
	if err := json.Unmarshal(line, &raw); err != nil {
		return Event{}, fmt.Errorf("obs: bad trace line: %w", err)
	}
	t, ok := eventTypeByName[raw.Ev]
	if !ok {
		return Event{}, fmt.Errorf("obs: unknown event type %q", raw.Ev)
	}
	us := math.Round(raw.T * 1e6)
	if math.Abs(us) >= math.MaxInt64/float64(time.Microsecond) {
		return Event{}, fmt.Errorf("obs: timestamp %gs is out of range", raw.T)
	}
	return Event{
		At:      time.Duration(us) * time.Microsecond,
		Type:    t,
		Mote:    raw.Mote,
		Peer:    raw.Peer,
		Label:   raw.Label,
		CtxType: raw.Ctx,
		Pos:     geom.Point{X: raw.X, Y: raw.Y},
		Kind:    trace.Kind(raw.Kind),
		Seq:     raw.Seq,
		Origin:  raw.Origin,
		Frame:   raw.Frame,
		Bits:    raw.Bits,
		Cause:   raw.Cause,
		Run:     raw.Run,
	}, nil
}
