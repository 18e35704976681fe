package trace

import (
	"sort"
	"sync"
	"time"
)

// LabelEventType classifies an entry in the coherence Ledger.
type LabelEventType int

// Ledger event types.
const (
	LabelCreated LabelEventType = iota + 1
	LabelTakeover
	LabelRelinquish
	LabelYield
	LabelDeleted
)

// String implements fmt.Stringer.
func (t LabelEventType) String() string {
	switch t {
	case LabelCreated:
		return "created"
	case LabelTakeover:
		return "takeover"
	case LabelRelinquish:
		return "relinquish"
	case LabelYield:
		return "yield"
	case LabelDeleted:
		return "deleted"
	default:
		return "unknown"
	}
}

// LabelEvent records one group-management transition for a context label.
type LabelEvent struct {
	At      time.Duration
	Type    LabelEventType
	Label   string // label identity
	CtxType string
	Mote    int // mote involved (new leader for takeover/relinquish, creator for created)
}

// Ledger is the coherence monitor. The group-management layer reports label
// lifecycle events; experiments then derive the paper's handover-success
// metric: a *successful* handover is a leadership change within the same
// label (takeover or relinquish); an *unsuccessful* one is the creation of
// an additional label of the same context type while an earlier label for
// the tracked entity exists (the "spurious label" case of Section 5.2).
// In a free-running parallel run, group managers on different shard
// goroutines record concurrently, so Record takes a lock; the summary
// methods are read after the run but lock anyway for race cleanliness.
type Ledger struct {
	mu     sync.Mutex
	Events []LabelEvent
}

// Record appends an event.
func (l *Ledger) Record(ev LabelEvent) {
	l.mu.Lock()
	l.Events = append(l.Events, ev)
	l.mu.Unlock()
}

// SortDeterministic re-orders the ledger into the canonical (At, CtxType,
// Label, Type, Mote) order. A parallel run calls it once after the shards
// stop: the event *multiset* of a run is deterministic but the order in
// which shards append is not, and sorting restores rerun byte-identity
// for order-sensitive readers (LiveLabels, trace dumps).
func (l *Ledger) SortDeterministic() {
	l.mu.Lock()
	sort.SliceStable(l.Events, func(i, j int) bool {
		a, b := &l.Events[i], &l.Events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.CtxType != b.CtxType {
			return a.CtxType < b.CtxType
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return a.Mote < b.Mote
	})
	l.mu.Unlock()
}

// HandoverSummary is the outcome of a single-target run.
type HandoverSummary struct {
	Created    int // labels created for the context type
	Takeovers  int // receive-timer leadership takeovers
	Relinquish int // explicit leadership relinquishes
	Yields     int // leaders yielding to a same-label leader
	Deleted    int // labels deleted (weight-based suppression)
	// Successful and Failed partition handover attempts per the paper.
	Successful int
	Failed     int
}

// SuccessRate returns Successful/(Successful+Failed), or 1 when no handover
// was attempted (a run with a stationary or in-range target needs none).
func (h HandoverSummary) SuccessRate() float64 {
	total := h.Successful + h.Failed
	if total == 0 {
		return 1
	}
	return float64(h.Successful) / float64(total)
}

// StrictSuccessRate is the paper's Figure 4 metric: every label created
// beyond the first counts as a failed handover ("a new context label is
// spawned at the new tank's location"), even if weight-based suppression
// later reabsorbed it. Returns 1 when no handover was attempted.
func (h HandoverSummary) StrictSuccessRate() float64 {
	failed := h.Created - 1
	if failed < 0 {
		failed = 0
	}
	total := h.Successful + failed
	if total == 0 {
		return 1
	}
	return float64(h.Successful) / float64(total)
}

// CoherenceViolations counts the spurious-label creations: labels beyond
// the first that were never reabsorbed by deletion.
func (h HandoverSummary) CoherenceViolations() int {
	extra := h.Created - 1 - h.Deleted
	if extra < 0 {
		return 0
	}
	return extra
}

// Summarize derives the handover metrics for one context type from the
// ledger, assuming a single tracked entity (the experimental setup of
// Section 6.1). Leadership changes within a label count as successful
// handovers. Each label created after the first counts as a failed
// handover: the target was rediscovered as a "new" entity, violating
// context-label coherence. Labels deleted by weight-based suppression are
// removed from the failure count — the system recovered coherence.
func (l *Ledger) Summarize(ctxType string) HandoverSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	var s HandoverSummary
	for _, ev := range l.Events {
		if ev.CtxType != ctxType {
			continue
		}
		switch ev.Type {
		case LabelCreated:
			s.Created++
		case LabelTakeover:
			s.Takeovers++
		case LabelRelinquish:
			s.Relinquish++
		case LabelYield:
			s.Yields++
		case LabelDeleted:
			s.Deleted++
		}
	}
	s.Successful = s.Takeovers + s.Relinquish
	failed := s.Created - 1 - s.Deleted
	if failed < 0 {
		failed = 0
	}
	s.Failed = failed
	return s
}

// DistinctLabels returns how many distinct labels of the context type
// appear in the ledger.
func (l *Ledger) DistinctLabels(ctxType string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := make(map[string]struct{})
	for _, ev := range l.Events {
		if ev.CtxType == ctxType && ev.Type == LabelCreated {
			seen[ev.Label] = struct{}{}
		}
	}
	return len(seen)
}

// LiveLabels returns the labels of the context type whose latest event is
// not a deletion, in creation order: a takeover revives a deleted label.
func (l *Ledger) LiveLabels(ctxType string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var order []string
	live := make(map[string]bool)
	for _, ev := range l.Events {
		if ev.CtxType != ctxType {
			continue
		}
		if _, seen := live[ev.Label]; !seen && ev.Type == LabelCreated {
			order = append(order, ev.Label)
		}
		live[ev.Label] = ev.Type != LabelDeleted
	}
	var out []string
	for _, lb := range order {
		if live[lb] {
			out = append(out, lb)
		}
	}
	return out
}
