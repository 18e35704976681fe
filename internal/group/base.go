package group

import (
	"fmt"
	"strings"
	"time"

	"envirotrack/internal/mote"
	"envirotrack/internal/obs"
	"envirotrack/internal/radio"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

// Runtime is the middleware layer above a tracking backend (the group
// Manager or the passive backend): the per-mote context runtime of
// internal/core. A backend "activates" the mote it selects to run the
// context's objects (the group leader, the passive estimator) and pairs
// every OnActivate with an eventual OnDeactivate for the same label.
// After Stop returns, a backend calls the runtime no more.
type Runtime interface {
	// ReportPayload supplies the mote's current measurements when the
	// backend ships readings to the active mote.
	ReportPayload() any
	// OnReport delivers a remote mote's readings to the active mote's
	// aggregation logic.
	OnReport(from radio.NodeID, payload any)
	// OnActivate is called when the backend selects this mote to run the
	// context's objects for label (the group protocol: this mote assumes
	// leadership), with the label's persistent state (nil for a fresh
	// label).
	OnActivate(label Label, state []byte)
	// OnDeactivate is called when this mote stops running the context's
	// objects for label for any reason (yield, deletion, relinquish,
	// leaving).
	OnDeactivate(label Label)
	// OnLabelDeleted is called when this mote deletes its own spurious
	// label (the group protocol's weight suppression, the passive
	// backend's label merge). The middleware uses it to withdraw
	// directory registrations.
	OnLabelDeleted(label Label)
}

// Base is the per-mote plumbing both tracking backends embed: the mote,
// the context type and its timing, the runtime above, the type's HotState
// bits, label minting and the label-creation backoff, and the obs and
// coherence-ledger events, so both protocols publish one event shape.
type Base struct {
	// Mote, CtxType, Config (defaults applied) and Runtime are set by
	// NewBase and read-only afterwards.
	Mote    *mote.Mote
	CtxType string
	Config  Config
	Runtime Runtime
	// CreationTimer is the label-creation backoff (see ArmBackoff).
	CreationTimer simtime.Timer

	// mask is CtxType's bit in the mote's HotState words, whose sensing
	// bit is the backend's sensing state.
	mask     uint32
	labelSeq int32
}

// NewBase returns the plumbing of a ctxType backend on mote m. It panics
// when the mote's HotState has no context-type bit left: core.Stack
// rejects such a type before it builds a backend.
func NewBase(m *mote.Mote, ctxType string, cfg Config, rt Runtime) Base {
	h, _ := m.Hot()
	mask, ok := h.CtxMask(ctxType)
	if !ok {
		panic(fmt.Sprintf("group: context type %q exceeds the limit of %d context types", ctxType, mote.MaxContextTypes))
	}
	return Base{Mote: m, CtxType: ctxType, Config: cfg.WithDefaults(), Runtime: rt, mask: mask}
}

// Sensing returns the last sensing state supplied via SetSensing.
func (b *Base) Sensing() bool {
	h, i := b.Mote.Hot()
	return h.Sensing(i, b.mask)
}

// WriteSensing stores sensing as the mote's HotState sensing bit, the only
// place that bit is written, and reports whether it did: a failed mote or
// an unchanged value leaves the bit as it is.
func (b *Base) WriteSensing(sensing bool) bool {
	if b.Mote.Failed() || sensing == b.Sensing() {
		return false
	}
	h, i := b.Mote.Hot()
	h.SetSensing(i, b.mask, sensing)
	return true
}

// SetMember sets or clears the mote's HotState membership bit for the
// type, which the group_size series probe counts.
func (b *Base) SetMember(on bool) {
	h, i := b.Mote.Hot()
	h.SetMember(i, b.mask, on)
}

// MintLabel returns a fresh label "<type>/<mote>.<n>" and records its
// creation.
func (b *Base) MintLabel() Label {
	b.labelSeq++
	label := Label(fmt.Sprintf("%s/%d.%d", b.CtxType, b.Mote.ID(), b.labelSeq))
	b.RecordEvent(trace.LabelCreated, label)
	return label
}

// Type returns the context type of a label of the "<type>/..." form
// MintLabel mints; a label without a '/' is its own type.
func (l Label) Type() string {
	s := string(l)
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i]
	}
	return s
}

// ArmBackoff schedules fire(arg) on *t after a random fraction of the
// creation backoff, unless *t is already pending.
func (b *Base) ArmBackoff(t *simtime.Timer, fire simtime.EventFunc, arg any) {
	if t.Pending() {
		return
	}
	d := time.Duration(b.Mote.Rand().Float64() * float64(b.Config.CreationBackoff))
	*t = b.Mote.Scheduler().AfterEventTimerOwned(d, simtime.OwnerGroup, fire, arg)
}

// RecordEvent publishes one label-lifecycle event and records it in the
// coherence ledger of the mote's env.
func (b *Base) RecordEvent(ty trace.LabelEventType, label Label) {
	if ev, ok := obs.LabelEvent(ty); ok {
		b.Emit(ev, label, radio.Broadcast, 0)
	}
	b.Mote.Ledger().Record(trace.LabelEvent{
		At:      b.Mote.Scheduler().Now(),
		Type:    ty,
		Label:   string(label),
		CtxType: b.CtxType,
		Mote:    int(b.Mote.ID()),
	})
}

// Emit publishes one tracking-protocol event. peer is the other mote
// involved (heartbeat origin, known leader, chosen successor) or
// radio.Broadcast when there is none.
func (b *Base) Emit(ev obs.EventType, label Label, peer radio.NodeID, seq uint64) {
	if bus := b.Mote.Obs(); bus.Active() {
		bus.Emit(obs.Event{
			At:      b.Mote.Scheduler().Now(),
			Type:    ev,
			Mote:    int(b.Mote.ID()),
			Peer:    int(peer),
			Label:   string(label),
			CtxType: b.CtxType,
			Pos:     b.Mote.Pos(),
			Seq:     seq,
		})
	}
}

// EmitCorr publishes one report-lifecycle event of a kind frame (a member
// reading, a gossip frame), carrying its correlation key so the span
// assembler and the invariant checker can stitch it to the radio frames.
func (b *Base) EmitCorr(ev obs.EventType, kind trace.Kind, peer radio.NodeID, label Label, corr radio.Corr, cause string) {
	if bus := b.Mote.Obs(); bus.Active() {
		bus.Emit(obs.Event{
			At:      b.Mote.Scheduler().Now(),
			Type:    ev,
			Mote:    int(b.Mote.ID()),
			Peer:    int(peer),
			CtxType: b.CtxType,
			Pos:     b.Mote.Pos(),
			Kind:    kind,
			Cause:   cause,
			Label:   string(label),
			Origin:  int(corr.Origin),
			Seq:     uint64(corr.Seq),
		})
	}
}
