// Package directory implements EnviroTrack's object naming and directory
// services (Section 5.3). A context type name is hashed to an (x, y)
// coordinate in the sensor field; the nodes nearest that coordinate hold
// the directory object, a mapping from context label to the label's current
// location and leader. Labels register when first created, refresh with
// occasional updates, and queries such as "where are all the fires?" are
// answered from the directory's fresh entries.
package directory

import (
	"hash/fnv"
	"sort"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/group"
	"envirotrack/internal/mote"
	"envirotrack/internal/obs"
	"envirotrack/internal/radio"
	"envirotrack/internal/routing"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

// entryTTL is how long a registration stays valid without a refresh.
const entryTTL = 30 * time.Second

// Query reliability: there are no MAC acknowledgements, so queries are
// retransmitted on a timeout until a reply arrives or the attempts are
// exhausted (the callback then receives nil).
const (
	queryTimeout = 2 * time.Second
	queryRetries = 3
)

// messageBits sizes directory frames on the air (a reply adds 32 bits per
// entry).
const messageBits = 48 * 8

// Entry is one directory record: the location of an active context label.
type Entry struct {
	CtxType   string
	Label     group.Label
	Location  geom.Point
	Leader    radio.NodeID
	UpdatedAt time.Duration
}

// HashPoint deterministically maps a context type name to a coordinate
// inside the field bounds (FNV-1a, like the content-hashing schemes the
// paper cites).
func HashPoint(name string, bounds geom.Rect) geom.Point {
	h := fnv.New64a()
	h.Write([]byte(name))
	v := h.Sum64()
	// Split into two 32-bit halves for x and y.
	fx := float64(uint32(v)) / float64(1<<32)
	fy := float64(uint32(v>>32)) / float64(1<<32)
	return geom.Pt(
		bounds.Min.X+fx*bounds.Width(),
		bounds.Min.Y+fy*bounds.Height(),
	)
}

// Routed message payloads.
type registerMsg struct {
	Entry Entry
}

type unregisterMsg struct {
	CtxType string
	Label   group.Label
	// At orders the unregistration against registrations: registrations
	// not newer than At stay dead (tombstone semantics).
	At time.Duration
}

type queryMsg struct {
	CtxType   string
	QueryID   uint64
	ReplyTo   geom.Point
	ReplyNode radio.NodeID
}

type replyMsg struct {
	QueryID uint64
	Entries []Entry
}

// Service is the per-mote directory component. Any mote may issue Register
// and Query; motes that happen to sit nearest a type's hash coordinate
// store that type's entries.
type Service struct {
	m      *mote.Mote
	router *routing.Router

	// The maps stay nil until first written: most motes never store an
	// entry or issue a query.
	//
	// entries is this node's replica of directory state (non-empty only on
	// directory nodes): ctxType -> label -> entry.
	entries map[string]map[group.Label]Entry
	// tombstones record unregistered labels so that in-flight or stale
	// registrations cannot resurrect them: ctxType -> label -> time.
	tombstones map[string]map[group.Label]time.Duration
	// pending holds in-flight queries issued from this node.
	pending     map[uint64]*pendingQuery
	nextQueryID uint64
}

// pendingQuery tracks one outstanding query and its retransmissions.
type pendingQuery struct {
	cb       func([]Entry)
	attempts int
	timer    simtime.Timer
	// corr is minted once per query; retransmissions share it, so every
	// attempt's frames land in one span.
	corr radio.Corr
}

// NewService allocates a directory service and initialises it (Init).
func NewService(m *mote.Mote, router *routing.Router) *Service {
	s := new(Service)
	s.Init(m, router)
	return s
}

// Init makes s the directory service of mote m, sending through the
// mote's router. It hashes type names into the field bounds of the mote's
// env. The messages the router delivers at the mote reach the service
// through Handle.
func (s *Service) Init(m *mote.Mote, router *routing.Router) {
	*s = Service{m: m, router: router}
}

// Register announces (or refreshes) a context label's location to the
// directory object for its type. Called by the label's leader when the
// label comes alive and periodically afterwards.
func (s *Service) Register(ctxType string, label group.Label, location geom.Point, leader radio.NodeID) {
	e := Entry{
		CtxType:   ctxType,
		Label:     label,
		Location:  location,
		Leader:    leader,
		UpdatedAt: s.m.Scheduler().Now(),
	}
	s.router.Send(routing.Message{
		Kind:      trace.KindDirectory,
		Dest:      HashPoint(ctxType, s.m.Env().Bounds),
		DestNode:  routing.AnyNode,
		Bits:      messageBits,
		Payload:   registerMsg{Entry: e},
		Corr:      radio.Corr{Origin: int32(s.m.ID()), Seq: s.m.NextCorrSeq()},
		CorrLabel: string(label),
	})
}

// unregisterRepeats is how many copies of an unregistration are sent.
// There are no MAC-layer acknowledgements, and unregistrations typically
// happen amid the collision-heavy churn of label formation, so sender-side
// redundancy keeps ghost entries out of the directory.
const unregisterRepeats = 3

// Unregister removes a label from its type's directory object (sent by a
// leader that deleted a spurious label, Section 5.2). The message is
// repeated a few times with spacing to survive collisions.
func (s *Service) Unregister(ctxType string, label group.Label) {
	msg := unregisterMsg{CtxType: ctxType, Label: label, At: s.m.Scheduler().Now()}
	corr := radio.Corr{Origin: int32(s.m.ID()), Seq: s.m.NextCorrSeq()}
	send := func() {
		if s.m.Failed() {
			return
		}
		s.router.Send(routing.Message{
			Kind:      trace.KindDirectory,
			Dest:      HashPoint(ctxType, s.m.Env().Bounds),
			DestNode:  routing.AnyNode,
			Bits:      messageBits,
			Payload:   msg,
			Corr:      corr,
			CorrLabel: string(label),
		})
	}
	send()
	for i := 1; i < unregisterRepeats; i++ {
		delay := time.Duration(float64(i)*150+s.m.Draw()*100) * time.Millisecond
		s.m.Scheduler().AfterOwned(delay, simtime.OwnerDirectory, send)
	}
}

// Query asks the directory object for all fresh labels of a context type;
// the callback is invoked with the reply (possibly empty, nil when every
// attempt timed out). The reply arrives asynchronously; the callback runs
// on the scheduler thread. Lost queries or replies are retransmitted.
func (s *Service) Query(ctxType string, cb func([]Entry)) {
	s.nextQueryID++
	id := s.nextQueryID
	if s.pending == nil {
		s.pending = make(map[uint64]*pendingQuery)
	}
	s.pending[id] = &pendingQuery{cb: cb, corr: radio.Corr{Origin: int32(s.m.ID()), Seq: s.m.NextCorrSeq()}}
	s.sendQuery(ctxType, id)
}

func (s *Service) sendQuery(ctxType string, id uint64) {
	pq, ok := s.pending[id]
	if !ok {
		return
	}
	pq.attempts++
	s.router.Send(routing.Message{
		Kind:     trace.KindDirectory,
		Dest:     HashPoint(ctxType, s.m.Env().Bounds),
		DestNode: routing.AnyNode,
		Bits:     messageBits,
		Payload: queryMsg{
			CtxType:   ctxType,
			QueryID:   id,
			ReplyTo:   s.m.Pos(),
			ReplyNode: s.m.ID(),
		},
		Corr:      pq.corr,
		CorrLabel: ctxType,
	})
	pq.timer = s.m.Scheduler().AfterOwned(queryTimeout, simtime.OwnerDirectory, func() {
		cur, ok := s.pending[id]
		if !ok || cur != pq {
			return
		}
		if pq.attempts >= queryRetries || s.m.Failed() {
			delete(s.pending, id)
			pq.cb(nil)
			return
		}
		s.sendQuery(ctxType, id)
	})
}

// Entries returns this node's fresh replica entries for a type, sorted by
// label (useful for inspection and tests).
func (s *Service) Entries(ctxType string) []Entry {
	return s.freshEntries(ctxType)
}

// Handle consumes a directory message that terminated at this node. It
// returns false for any other payload.
func (s *Service) Handle(msg routing.Message) bool {
	switch p := msg.Payload.(type) {
	case registerMsg:
		s.store(p.Entry)
		return true
	case unregisterMsg:
		s.remove(p)
		return true
	case queryMsg:
		s.answer(p)
		return true
	case replyMsg:
		if pq, ok := s.pending[p.QueryID]; ok {
			delete(s.pending, p.QueryID)
			pq.timer.Stop()
			pq.cb(p.Entries)
		}
		return true
	default:
		return false
	}
}

func (s *Service) store(e Entry) {
	if ts, ok := s.tombstones[e.CtxType][e.Label]; ok && e.UpdatedAt <= ts {
		return // the label was unregistered after this registration was made
	}
	byLabel, ok := s.entries[e.CtxType]
	if !ok {
		if s.entries == nil {
			s.entries = make(map[string]map[group.Label]Entry)
		}
		byLabel = make(map[group.Label]Entry)
		s.entries[e.CtxType] = byLabel
	}
	if prev, ok := byLabel[e.Label]; ok && prev.UpdatedAt > e.UpdatedAt {
		return // out-of-order refresh
	}
	byLabel[e.Label] = e
	s.emit(obs.EvDirectoryUpdated, e.CtxType, string(e.Label), int(e.Leader), "register")
}

func (s *Service) remove(p unregisterMsg) {
	if byLabel, ok := s.entries[p.CtxType]; ok {
		if e, ok := byLabel[p.Label]; !ok || e.UpdatedAt <= p.At {
			delete(byLabel, p.Label)
		}
	}
	byLabel, ok := s.tombstones[p.CtxType]
	if !ok {
		if s.tombstones == nil {
			s.tombstones = make(map[string]map[group.Label]time.Duration)
		}
		byLabel = make(map[group.Label]time.Duration)
		s.tombstones[p.CtxType] = byLabel
	}
	if ts, ok := byLabel[p.Label]; !ok || ts < p.At {
		byLabel[p.Label] = p.At
	}
	s.emit(obs.EvDirectoryUpdated, p.CtxType, string(p.Label), -1, "unregister")
}

func (s *Service) answer(q queryMsg) {
	entries := s.freshEntries(q.CtxType)
	if entries == nil {
		// A reply is never nil: Query's callback reserves nil for "every
		// attempt timed out".
		entries = []Entry{}
	}
	s.emit(obs.EvDirectoryQuery, q.CtxType, "", int(q.ReplyNode), "")
	s.router.Send(routing.Message{
		Kind:      trace.KindDirectory,
		Dest:      q.ReplyTo,
		DestNode:  q.ReplyNode,
		Bits:      messageBits + 32*len(entries),
		Payload:   replyMsg{QueryID: q.QueryID, Entries: entries},
		Corr:      radio.Corr{Origin: int32(s.m.ID()), Seq: s.m.NextCorrSeq()},
		CorrLabel: q.CtxType,
	})
}

// emit publishes one directory event: peer is the registering leader, the
// querying node, or -1 for an unregister; cause says which mutation it was.
func (s *Service) emit(ev obs.EventType, ctxType, label string, peer int, cause string) {
	if bus := s.m.Obs(); bus.Active() {
		bus.Emit(obs.Event{
			At:      s.m.Scheduler().Now(),
			Type:    ev,
			Mote:    int(s.m.ID()),
			Peer:    peer,
			Label:   label,
			CtxType: ctxType,
			Pos:     s.m.Pos(),
			Kind:    trace.KindDirectory,
			Cause:   cause,
		})
	}
}

// freshEntries returns unexpired entries for the type, pruning stale ones.
func (s *Service) freshEntries(ctxType string) []Entry {
	byLabel := s.entries[ctxType]
	if len(byLabel) == 0 {
		return nil
	}
	cutoff := s.m.Scheduler().Now() - entryTTL
	var out []Entry
	for label, e := range byLabel {
		if e.UpdatedAt < cutoff {
			delete(byLabel, label)
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}
