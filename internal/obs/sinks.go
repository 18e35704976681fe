package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"envirotrack/internal/trace"
)

// JSONLSink writes one JSON object per event to an io.Writer, buffered.
// It is safe for concurrent use; events from parallel runs interleave at
// line granularity and carry their run tag, so a post-hoc
// `jq 'select(.run == N)'` recovers each run's deterministic stream.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte
}

// NewJSONLSink wraps w. Call Flush before reading the output.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriterSize(w, 1<<16)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(ev Event) {
	s.mu.Lock()
	s.buf = appendEventJSON(s.buf[:0], ev)
	s.buf = append(s.buf, '\n')
	s.w.Write(s.buf)
	s.mu.Unlock()
}

// Flush drains the buffer to the underlying writer.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// appendEventJSON marshals ev without reflection: the sink sits on the
// simulator's hot path when tracing is on, and the field set is fixed.
// Sparse fields are omitted when zero.
func appendEventJSON(b []byte, ev Event) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendFloat(b, ev.At.Seconds(), 'f', 6, 64)
	b = append(b, `,"ev":`...)
	b = strconv.AppendQuote(b, ev.Type.String())
	b = append(b, `,"mote":`...)
	b = strconv.AppendInt(b, int64(ev.Mote), 10)
	b = append(b, `,"peer":`...)
	b = strconv.AppendInt(b, int64(ev.Peer), 10)
	if ev.Label != "" {
		b = append(b, `,"label":`...)
		b = strconv.AppendQuote(b, ev.Label)
	}
	if ev.CtxType != "" {
		b = append(b, `,"ctx":`...)
		b = strconv.AppendQuote(b, ev.CtxType)
	}
	b = append(b, `,"x":`...)
	b = strconv.AppendFloat(b, ev.Pos.X, 'f', -1, 64)
	b = append(b, `,"y":`...)
	b = strconv.AppendFloat(b, ev.Pos.Y, 'f', -1, 64)
	if ev.Kind != "" {
		b = append(b, `,"kind":`...)
		b = strconv.AppendQuote(b, string(ev.Kind))
	}
	if ev.Seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendUint(b, ev.Seq, 10)
	}
	if ev.Origin != 0 {
		b = append(b, `,"origin":`...)
		b = strconv.AppendInt(b, int64(ev.Origin), 10)
	}
	if ev.Frame != 0 {
		b = append(b, `,"frame":`...)
		b = strconv.AppendUint(b, ev.Frame, 10)
	}
	if ev.Bits != 0 {
		b = append(b, `,"bits":`...)
		b = strconv.AppendInt(b, int64(ev.Bits), 10)
	}
	if ev.Cause != "" {
		b = append(b, `,"cause":`...)
		b = strconv.AppendQuote(b, ev.Cause)
	}
	b = append(b, `,"run":`...)
	b = strconv.AppendInt(b, ev.Run, 10)
	b = append(b, '}')
	return b
}

// RingSink keeps the last N events for post-mortem dumps: attach it
// always-on (it is cheap), and on an assertion failure dump the tail of
// protocol history instead of re-running with printf.
type RingSink struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total uint64
}

// NewRingSink builds a ring holding the last capacity events (min 1).
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		capacity = 1
	}
	return &RingSink{buf: make([]Event, 0, capacity)}
}

// Emit implements Sink.
func (s *RingSink) Emit(ev Event) {
	s.mu.Lock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, ev)
	} else {
		s.buf[s.next] = ev
		s.next = (s.next + 1) % cap(s.buf)
	}
	s.total++
	s.mu.Unlock()
}

// Total returns how many events were ever emitted into the ring.
func (s *RingSink) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Events returns the retained events, oldest first.
func (s *RingSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// CounterSink tallies events by type — the cheapest always-on sink. It
// is safe for concurrent use: each type's tally is one atomic counter.
type CounterSink struct {
	counts [256]atomic.Uint64 // indexed by EventType
}

// NewCounterSink builds an empty counter sink.
func NewCounterSink() *CounterSink {
	return &CounterSink{}
}

// Emit implements Sink.
func (s *CounterSink) Emit(ev Event) {
	s.counts[ev.Type].Add(1)
}

// Count returns the tally for one event type.
func (s *CounterSink) Count(t EventType) uint64 {
	return s.counts[t].Load()
}

// Counts returns a copy of the non-zero tallies.
func (s *CounterSink) Counts() map[EventType]uint64 {
	out := make(map[EventType]uint64)
	for t := range s.counts {
		if n := s.counts[t].Load(); n != 0 {
			out[EventType(t)] = n
		}
	}
	return out
}

// StatsSink reconstructs radio accounting from the event stream into an
// existing trace.Stats: frame send/receive/loss/undelivered events and
// CPU-overload drops map onto the same counters the medium records
// directly. It demonstrates that the event stream carries the full
// information of the aggregate counters (pinned by TestStatsSinkMatchesMedium)
// and lets external consumers rebuild per-kind loss tables from a JSONL
// trace alone.
type StatsSink struct {
	mu    sync.Mutex
	Stats *trace.Stats
}

// NewStatsSink wraps st (which must be non-nil).
func NewStatsSink(st *trace.Stats) *StatsSink {
	return &StatsSink{Stats: st}
}

// Emit implements Sink.
func (s *StatsSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Type {
	case EvFrameSent:
		s.Stats.RecordSend(ev.Kind, ev.Bits)
	case EvFrameReceived:
		s.Stats.RecordReceive(ev.Kind)
	case EvFrameLost:
		s.Stats.RecordLoss(ev.Kind, lossCauseOf(ev.Cause))
	case EvFrameUndelivered:
		s.Stats.RecordUndelivered(ev.Kind)
	case EvCPUOverload:
		s.Stats.RecordLoss(ev.Kind, trace.LossOverload)
	}
}

// lossCauseOf inverts trace.LossCause.String.
func lossCauseOf(s string) trace.LossCause {
	switch s {
	case "collision":
		return trace.LossCollision
	case "overload":
		return trace.LossOverload
	default:
		return trace.LossRandom
	}
}
