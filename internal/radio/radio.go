// Package radio simulates the shared wireless medium of a mote network: a
// disk-connectivity broadcast channel with finite bit rate (50 kb/s for MICA
// motes), propagation delay, iid channel loss, and receiver-side collision
// corruption. There is no MAC-layer reliability, matching the paper's
// observation that "no reliability is implemented in the MAC layer of the
// MICA motes"; collisions therefore grow with offered traffic.
//
// The send/receive path is the hottest code in the simulator (every frame
// fans out to O(neighbors) receptions), so it is allocation-free in steady
// state: reception, delivery-batch, and CSMA-retry records are pooled on
// intrusive free lists, their completion events are scheduled through the
// scheduler's typed-payload API (no closure captures), spatial queries
// append into reusable scratch, and cell buckets are kept id-sorted at
// insert so range queries merge instead of sorting per call.
//
// Execution contexts: all mutable send-path state (stats, obs bus, record
// pools, outbox) lives in a shardCtx, one per scheduler shard the medium
// is built over (New). A serial run has one context; a parallel run gives
// every shard its own, so shard goroutines never share a pool or a
// counter. Every draw is a simtime.Draw keyed by the transmission id,
// which names the sender and its send count, so no draw and no id depends
// on the shard layout or on event order. Across shards CSMA occupancy is
// shard-local: a cross-shard frame does not occupy or collide at remote
// receivers during the window — its target receptions cross through the
// sending shard's outbox, drained at the window barrier (FlushBoundary),
// and become ordinary receptions on the receiving shard. That
// approximation is what the statistical-equivalence battery in
// internal/eval validates against the serial reference. One lookahead rule
// guards the crossing: a boundary delivery must land at least one packet
// time after its send and no earlier than the barrier that drains it;
// FlushBoundary fails the run at the first barrier after either check
// trips.
package radio

import (
	"fmt"
	"math"
	"slices"
	"time"

	"envirotrack/internal/arena"
	"envirotrack/internal/geom"
	"envirotrack/internal/obs"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

// NodeID identifies a mote on the medium.
type NodeID int

// Broadcast is the destination address for frames intended for every node
// in communication range.
const Broadcast NodeID = -1

// DefaultBitRate is the MICA mote channel capacity in bits per second.
const DefaultBitRate = 50_000.0

// DefaultFrameBits approximates a small TinyOS active message (36-byte
// frame) on the air.
const DefaultFrameBits = 36 * 8

// Corr is the causal-correlation header of a logical message: the mote
// that originated it and an origin-scoped sequence number. The pair
// identifies one logical message end to end — across routing hops, CSMA
// retries, and chaos duplications — and is carried into every obs event
// the message's frames produce, which is what lets the SpanSink and
// ettrace reassemble per-report lifecycles. The label a message concerns
// travels on the span-opening report_sent event, not here: Corr rides in
// every Frame copied per receiver on broadcast, so it is kept to eight
// bytes. The zero Corr marks uncorrelated traffic (sequence numbers are
// 1-based) and costs nothing.
type Corr struct {
	Origin int32
	Seq    uint32
}

// Frame is one transmission. Payload is an opaque protocol message owned by
// the upper layers.
type Frame struct {
	Kind    trace.Kind
	Src     NodeID
	Dst     NodeID // Broadcast or a specific node
	Bits    int    // size on the air; DefaultFrameBits if zero
	Payload any
	// Corr is the correlation header of the logical message this frame
	// carries (zero for uncorrelated traffic).
	Corr Corr
	// ID is the medium-stamped transmission id, assigned by Send: the
	// sender's id in the high 32 bits and its send count (1-based; a
	// chaos duplicate is a send of its own) in the low 32, so it names one
	// transmission on every shard layout. 0 means not yet sent.
	ID uint64
}

// Params configures the medium.
type Params struct {
	// CommRadius is the communication radius in grid units.
	CommRadius float64
	// BitRate is the channel capacity in bits/second (DefaultBitRate if 0).
	BitRate float64
	// PropDelay is the fixed propagation + modem turnaround delay added to
	// each frame's airtime.
	PropDelay time.Duration
	// LossProb is the iid per-receiver frame loss probability in [0,1].
	LossProb float64
	// DisableCollisions turns off the receiver-side collision model.
	DisableCollisions bool
	// DisableCSMA turns off carrier sensing: senders then transmit
	// immediately even when the channel around them is busy. The MICA
	// radio stack carrier-senses (it lacks MAC *reliability*, not CSMA),
	// so CSMA is on by default; hidden terminals still collide.
	DisableCSMA bool
}

func (p Params) withDefaults() Params {
	if p.BitRate <= 0 {
		p.BitRate = DefaultBitRate
	}
	return p
}

// csmaSlot is the carrier-sense backoff slot; the backoff window doubles
// per deferral up to 16 slots.
const csmaSlot = time.Millisecond

// maxCSMAAttempts bounds carrier-sense deferrals; after that the frame is
// transmitted regardless (bounded latency, like a saturated CSMA MAC).
const maxCSMAAttempts = 6

// Receiver is the callback invoked on successful frame reception. It runs
// on the scheduler thread at the frame's arrival time.
type Receiver func(Frame)

// FaultInjector lets a fault-injection harness perturb the medium while a
// run executes. All methods are consulted on the scheduler thread. Draws
// are keyed by the frame they decide, so an injector moves only the
// outcomes it changes. In parallel mode the methods are called from
// concurrent shard goroutines, so implementations must be read-only over
// immutable schedule data (internal/chaos's injector is).
type FaultInjector interface {
	// LossProb returns the effective iid per-receiver loss probability at
	// sim time now, given the configured base probability.
	LossProb(now time.Duration, base float64) float64
	// Linked reports whether a frame from src can reach dst at sim time
	// now; false models a network partition severing the link.
	Linked(now time.Duration, src, dst NodeID) bool
	// DuplicateProb returns the probability that a frame transmission is
	// duplicated (sent twice) at sim time now. Zero disables duplication.
	DuplicateProb(now time.Duration) float64
}

// SetFaultInjector attaches a fault injector to the medium; nil detaches
// it and restores nominal behaviour.
func (m *Medium) SetFaultInjector(fi FaultInjector) { m.faults = fi }

// shardCtx is one shard's mutable send-path state: the stats accumulator,
// obs bus, record pools and arenas, and the cross-shard outbox. Each shard
// owns one, so nothing mutable is shared between shard goroutines.
type shardCtx struct {
	m     *Medium
	sched *simtime.Scheduler
	seed  int64
	stats *trace.Stats
	bus   *obs.Bus

	// Free lists pooling the per-frame records of the send path. Refills
	// come from context-local arenas, so a run's records occupy contiguous
	// blocks instead of scattered heap objects.
	rxFree  *reception
	psFree  *pendingSend
	dbFree  *deliveryBatch
	rxArena arena.Arena[reception]
	psArena arena.Arena[pendingSend]
	dbArena arena.Arena[deliveryBatch]

	// out buffers this shard's cross-shard target receptions, in send
	// order, during the current window; FlushBoundary drains it at the
	// barrier. Draining a record touches only its destination shard, so
	// every destination sees its records in the order per-destination
	// boxes would give.
	out []crossRec
	// boundary counts the cross-shard target receptions this shard sent;
	// late counts those that broke the lookahead rule, at send time or at
	// the barrier.
	boundary uint64
	late     uint64
}

// Medium is the shared channel. It is driven entirely by the simulation
// schedulers; only shards' send paths may run concurrently.
//
// Topology is append-only: nodes register once via AddNode and never
// move. Spatial queries run against a uniform-grid spatial hash with cell
// size CommRadius, so resolving the nodes near a point costs O(found)
// instead of a scan over the whole field.
type Medium struct {
	params Params

	nodes map[NodeID]*Node
	order []NodeID // node ids, kept ascending by insertion-time merge
	// faults, when non-nil, overrides loss probability, severs partitioned
	// links, and duplicates frames (chaos harness). Nil in nominal runs.
	faults FaultInjector

	// cells is the spatial hash: nodes bucketed by grid cell of size
	// cellSize (= CommRadius, or 1 when CommRadius is unset). Entries
	// carry the position so range filtering never touches the nodes map,
	// and each bucket is kept id-sorted at insert so queries k-way merge
	// the candidate buckets instead of sorting per call.
	cells    map[cellKey][]cellEntry
	cellSize float64
	// resolved counts nodes whose neighbor list is resolved. While it is
	// zero — through a network's whole set-up — AddNode has no list to
	// drop and skips the range query.
	resolved int

	// Query scratch, reused across calls (spatial queries run on the
	// coordinator/setup path, never concurrently).
	queryBuckets [][]cellEntry
	queryCur     []int
	scratchIDs   []NodeID

	// ctxs are the per-shard execution contexts, in shard order.
	ctxs []*shardCtx

	// shardOfPos maps a position to its shard (nil: everything on shard
	// 0).
	shardOfPos func(geom.Point) int32
}

// cellKey addresses one bucket of the spatial hash.
type cellKey struct{ x, y int }

// cellEntry is one node in a spatial-hash bucket.
type cellEntry struct {
	id  NodeID
	pos geom.Point
}

// Node is one registered node on the medium. Protocol layers see it
// read-only, through Neighbors, ID, and Pos.
type Node struct {
	id   NodeID
	pos  geom.Point
	recv Receiver
	// shard is the scheduler shard owning this node's region; resolved
	// once at registration.
	shard int32
	// sends counts the node's sends (nextID); each commits one
	// transmission.
	sends uint32
	// nbrs is the node's in-range neighbours in ascending id order, nil
	// until first resolved and again after AddNode registers a node within
	// range. Fan-out walks it with no per-receiver lookup. It sits behind
	// a pointer so that a node whose list is never resolved keeps its
	// 80-byte size class.
	nbrs *[]*Node
	// txBusyUntil serializes a node's own transmissions: a mote has one
	// radio and cannot transmit two frames at once.
	txBusyUntil time.Duration
	// rx tracks in-flight receptions for collision detection.
	rx []*reception
}

// ID returns the node's id.
func (n *Node) ID() NodeID { return n.id }

// Pos returns the node's position.
func (n *Node) Pos() geom.Point { return n.pos }

// reception is one frame occupying one receiver's channel. Records are
// pooled: a reception is recycled once it is out of the receiver's rx list
// (inList) and its delivery event, if any, has fired (hasEvent). A target
// reception on the sender's shard belongs to the frame's batch (tx); one
// that crossed a shard boundary has no batch and its own delivery event.
type reception struct {
	start     time.Duration
	end       time.Duration
	corrupted bool
	lost      bool // iid loss, drawn at schedule time
	inList    bool
	hasEvent  bool
	sc        *shardCtx
	dst       *Node
	f         Frame
	tx        *deliveryBatch
	next      *reception
}

// pendingSend is a CSMA-deferred frame awaiting its backoff timer. Pooled.
type pendingSend struct {
	sc      *shardCtx
	f       Frame
	attempt int
	next    *pendingSend
}

// deliveryBatch is one transmission and its batched fan-out: the target
// receptions on the sender's shard, delivered in ascending receiver-id
// order by a single scheduler event at arrival time (airtime is computed
// once and shared), followed by the sender-side undelivered check for the
// paper's "sent but never received on any other mote" loss metric: one
// heap event per frame instead of one per receiver. delivered counts the
// receivers that got a copy. Pooled.
type deliveryBatch struct {
	sc        *shardCtx
	f         Frame
	pos       geom.Point
	delivered int
	rxs       []*reception
	next      *deliveryBatch
}

// crossRec is one cross-shard target reception buffered in the sending
// shard's outbox during a parallel window: the loss outcome is already
// drawn, so only the receiver-side occupancy, accounting, and callback
// remain to run on the receiving shard. start/end span the frame's airtime
// at the receiver so FlushBoundary can insert it into the receiver's
// channel-occupancy list for collision detection.
type crossRec struct {
	dst        *Node
	f          Frame
	start, end time.Duration
	at         time.Duration
	lost       bool
}

// ShardRuntime carries one scheduler shard's execution resources: the
// shard's scheduler, the run seed every keyed draw mixes in, its private
// stats accumulator (required), and the observability bus its frame
// events go through (nil disables emission).
type ShardRuntime struct {
	Sched *simtime.Scheduler
	Seed  int64
	Stats *trace.Stats
	Bus   *obs.Bus
}

// New creates a medium over one or more scheduler shards. shardOfPos
// resolves a registered position's shard (nil puts every node on shard 0),
// and every shard gets its own execution context — scheduler, stats, obs
// bus, record pools, and cross-shard outbox — so shard goroutines share no
// mutable send-path state. Each frame's medium events run on the shard
// owning the sender; target receptions whose receiver lives in another
// shard are classified as boundary traffic, counted, and checked against
// the conservative lookahead of one packet time. Before several shard
// workers start, the owner must call PrebuildNeighbors (after the last
// AddNode) so spatial lookups are read-only during the run.
func New(p Params, shardOfPos func(geom.Point) int32, rts ...ShardRuntime) *Medium {
	p = p.withDefaults()
	cellSize := p.CommRadius
	if cellSize <= 0 {
		cellSize = 1
	}
	k := len(rts)
	m := &Medium{
		params:     p,
		nodes:      make(map[NodeID]*Node),
		cells:      make(map[cellKey][]cellEntry),
		cellSize:   cellSize,
		ctxs:       make([]*shardCtx, k),
		shardOfPos: shardOfPos,
	}
	for i, rt := range rts {
		m.ctxs[i] = &shardCtx{
			m:     m,
			sched: rt.Sched,
			seed:  rt.Seed,
			stats: rt.Stats,
			bus:   rt.Bus,
		}
	}
	return m
}

// Params returns the medium configuration (with defaults applied).
func (m *Medium) Params() Params {
	return m.params
}

// PrebuildNeighbors resolves the neighbor list of every registered node.
// A run on several shards calls it once before the shard workers start:
// afterwards neighbor lists are only read, which is safe from concurrent
// shard goroutines.
func (m *Medium) PrebuildNeighbors() {
	for _, id := range m.order {
		m.neighborsOf(m.nodes[id])
	}
}

// NodeShard returns the shard owning a node's region (0 when unknown).
func (m *Medium) NodeShard(id NodeID) int32 {
	if n, ok := m.nodes[id]; ok {
		return n.shard
	}
	return 0
}

// BoundaryFrames counts boundary target receptions: those whose sender
// and receiver live in different shards.
func (m *Medium) BoundaryFrames() uint64 {
	var total uint64
	for _, sc := range m.ctxs {
		total += sc.boundary
	}
	return total
}

// AddNode registers a stationary node. It returns an error if the id is
// taken or outside [0, 2^32), the 32 bits a transmission id keeps of it.
// Registration is the only topology mutation (nodes never move or
// deregister), so it inserts the node into the spatial hash — keeping both
// the global order and its cell bucket sorted by id — and drops exactly
// the resolved neighbor lists the newcomer joins: those of nodes within
// CommRadius of pos.
func (m *Medium) AddNode(id NodeID, pos geom.Point, recv Receiver) error {
	if id < 0 || uint64(id) > math.MaxUint32 {
		return fmt.Errorf("radio: node id %d outside [0, 2^32)", id)
	}
	if _, ok := m.nodes[id]; ok {
		return fmt.Errorf("radio: node %d already registered", id)
	}
	n := &Node{id: id, pos: pos, recv: recv}
	if m.shardOfPos != nil {
		n.shard = m.shardOfPos(pos)
	}
	m.nodes[id] = n
	i, _ := slices.BinarySearch(m.order, id)
	m.order = slices.Insert(m.order, i, id)
	key := m.cellOf(pos)
	bucket := m.cells[key]
	j, _ := slices.BinarySearchFunc(bucket, id, func(e cellEntry, id NodeID) int {
		switch {
		case e.id < id:
			return -1
		case e.id > id:
			return 1
		default:
			return 0
		}
	})
	m.cells[key] = slices.Insert(bucket, j, cellEntry{id: id, pos: pos})
	if m.resolved == 0 {
		return nil
	}
	m.scratchIDs = m.appendNodesWithin(m.scratchIDs[:0], pos, m.params.CommRadius)
	for _, nid := range m.scratchIDs {
		if n := m.nodes[nid]; n.nbrs != nil {
			n.nbrs = nil
			m.resolved--
		}
	}
	return nil
}

// cellOf maps a position to its spatial-hash bucket.
func (m *Medium) cellOf(p geom.Point) cellKey {
	return cellKey{
		x: int(math.Floor(p.X / m.cellSize)),
		y: int(math.Floor(p.Y / m.cellSize)),
	}
}

// appendNodesWithin appends all node ids within radius r of p (inclusive),
// in ascending id order, to dst and returns the extended slice. It scans
// only the spatial-hash cells intersecting the query disk; because buckets
// are id-sorted at insert and a node lives in exactly one bucket, the
// results come out of a k-way merge with no per-call sort. When the query
// radius is so large that the cell window exceeds the node count, it falls
// back to the linear scan over the (sorted) global order, bounding the
// cost at O(n).
func (m *Medium) appendNodesWithin(dst []NodeID, p geom.Point, r float64) []NodeID {
	if r < 0 {
		return dst
	}
	x0 := int(math.Floor((p.X - r) / m.cellSize))
	x1 := int(math.Floor((p.X + r) / m.cellSize))
	y0 := int(math.Floor((p.Y - r) / m.cellSize))
	y1 := int(math.Floor((p.Y + r) / m.cellSize))
	spanX, spanY := x1-x0+1, y1-y0+1
	if spanX > len(m.order) || spanY > len(m.order) || spanX*spanY > len(m.order) {
		for _, id := range m.order {
			if m.nodes[id].pos.Within(p, r) {
				dst = append(dst, id)
			}
		}
		return dst
	}
	buckets, cur := m.queryBuckets[:0], m.queryCur[:0]
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			if c := m.cells[cellKey{x: x, y: y}]; len(c) > 0 {
				buckets = append(buckets, c)
				cur = append(cur, 0)
			}
		}
	}
	m.queryBuckets, m.queryCur = buckets, cur
	// Each cursor rests on its bucket's next in-range entry (or past the
	// end), so Within is evaluated exactly once per candidate.
	for i := range buckets {
		for cur[i] < len(buckets[i]) && !buckets[i][cur[i]].pos.Within(p, r) {
			cur[i]++
		}
	}
	for {
		best := -1
		for i := range buckets {
			if cur[i] < len(buckets[i]) &&
				(best < 0 || buckets[i][cur[i]].id < buckets[best][cur[best]].id) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		dst = append(dst, buckets[best][cur[best]].id)
		cur[best]++
		for cur[best] < len(buckets[best]) && !buckets[best][cur[best]].pos.Within(p, r) {
			cur[best]++
		}
	}
	// Drop the bucket references so retained scratch can't pin stale views
	// of buckets that later inserts reallocate.
	for i := range buckets {
		buckets[i] = nil
	}
	m.queryBuckets = buckets[:0]
	return dst
}

// Position returns a node's location.
func (m *Medium) Position(id NodeID) (geom.Point, bool) {
	n, ok := m.nodes[id]
	if !ok {
		return geom.Point{}, false
	}
	return n.pos, true
}

// NodeIDs returns all registered node ids in ascending order.
func (m *Medium) NodeIDs() []NodeID {
	out := make([]NodeID, len(m.order))
	copy(out, m.order)
	return out
}

// Neighbors returns the nodes within communication radius of id, in
// ascending id order, or nil for an unregistered id. Callers must not
// mutate the returned slice.
func (m *Medium) Neighbors(id NodeID) []*Node {
	n, ok := m.nodes[id]
	if !ok {
		return nil
	}
	return m.neighborsOf(n)
}

// neighborsOf returns n's neighbor list, resolving it on first use. The
// list stays correct because the topology only mutates at registration
// time (AddNode), which drops exactly the lists the new node appears in.
// Resolution goes through the spatial hash, so it costs O(neighbors), not
// O(total nodes).
func (m *Medium) neighborsOf(n *Node) []*Node {
	if n.nbrs != nil {
		return *n.nbrs
	}
	m.scratchIDs = m.appendNodesWithin(m.scratchIDs[:0], n.pos, m.params.CommRadius)
	var nb []*Node
	if len(m.scratchIDs) > 1 {
		nb = make([]*Node, 0, len(m.scratchIDs)-1)
		for _, other := range m.scratchIDs {
			if other != n.id {
				nb = append(nb, m.nodes[other])
			}
		}
	}
	n.nbrs = &nb
	m.resolved++
	return nb
}

// InRange reports whether b is within communication radius of a.
func (m *Medium) InRange(a, b NodeID) bool {
	na, ok := m.nodes[a]
	if !ok {
		return false
	}
	nb, ok := m.nodes[b]
	if !ok {
		return false
	}
	return na.pos.Within(nb.pos, m.params.CommRadius)
}

// Airtime returns the channel occupancy of a frame of the given size. It
// is a pure computation, safe from concurrent shard goroutines; the send
// path uses it too.
func (m *Medium) Airtime(bits int) time.Duration {
	if bits <= 0 {
		bits = DefaultFrameBits
	}
	return time.Duration(float64(bits) / m.params.BitRate * float64(time.Second))
}

// lost draws the iid loss at dst of transmission id, whose airtime starts
// at start; a fault override moves only the threshold.
func (sc *shardCtx) lost(id uint64, dst NodeID, start time.Duration) bool {
	p := sc.m.params.LossProb
	if sc.m.faults != nil {
		p = sc.m.faults.LossProb(start, p)
	}
	return p > 0 && simtime.Draw(sc.seed, simtime.DrawLoss, id, uint64(dst)) < p
}

// --- record pools ---

func (sc *shardCtx) acquireRX() *reception {
	if rx := sc.rxFree; rx != nil {
		sc.rxFree = rx.next
		*rx = reception{sc: sc}
		return rx
	}
	rx := sc.rxArena.New()
	rx.sc = sc
	return rx
}

func (sc *shardCtx) recycleRX(rx *reception) {
	rx.dst = nil
	rx.f = Frame{}
	rx.tx = nil
	rx.next = sc.rxFree
	sc.rxFree = rx
}

// releaseFromList is called when a reception leaves its receiver's rx
// list; the record recycles once the delivery event (if any) has fired.
func releaseFromList(rx *reception) {
	rx.inList = false
	if !rx.hasEvent {
		rx.sc.recycleRX(rx)
	}
}

func (sc *shardCtx) acquirePS() *pendingSend {
	if ps := sc.psFree; ps != nil {
		sc.psFree = ps.next
		ps.next = nil
		return ps
	}
	ps := sc.psArena.New()
	ps.sc = sc
	return ps
}

func (sc *shardCtx) recyclePS(ps *pendingSend) {
	ps.f = Frame{}
	ps.next = sc.psFree
	sc.psFree = ps
}

func (sc *shardCtx) acquireBatch() *deliveryBatch {
	if b := sc.dbFree; b != nil {
		sc.dbFree = b.next
		b.next = nil
		return b
	}
	b := sc.dbArena.New()
	b.sc = sc
	return b
}

func (sc *shardCtx) recycleBatch(b *deliveryBatch) {
	b.f = Frame{}
	b.delivered = 0
	b.rxs = b.rxs[:0]
	b.next = sc.dbFree
	sc.dbFree = b
}

// Send transmits a frame from f.Src. The sender carrier-senses first:
// while the channel around it is busy (its own transmission or an audible
// reception in progress) the frame is deferred with random backoff, up to
// maxCSMAAttempts times. Delivery to in-range receivers happens after
// airtime plus propagation delay, subject to loss and collisions (hidden
// terminals still collide). Sending from an unregistered node is a no-op.
func (m *Medium) Send(f Frame) {
	src, ok := m.nodes[f.Src]
	if !ok {
		return
	}
	f.ID = src.nextID()
	m.trySend(src, f, 0)
	// Message-duplication fault: occasionally transmit a second copy of the
	// frame, as a send of its own that serializes behind the original.
	if m.faults != nil {
		sc := m.ctxs[src.shard]
		if p := m.faults.DuplicateProb(sc.sched.Now()); p > 0 &&
			simtime.Draw(sc.seed, simtime.DrawDuplicate, f.ID) < p {
			f.ID = src.nextID()
			m.trySend(src, f, 0)
		}
	}
}

// nextID counts one send of n and returns its transmission id.
func (n *Node) nextID() uint64 {
	n.sends++
	return uint64(uint32(n.id))<<32 | uint64(n.sends)
}

// channelBusyUntil returns when the medium around the node goes idle: the
// latest end among audible in-flight receptions and its own transmission.
func (m *Medium) channelBusyUntil(n *Node, now time.Duration) time.Duration {
	busy := time.Duration(0)
	if n.txBusyUntil > now {
		busy = n.txBusyUntil
	}
	kept := n.rx[:0]
	for _, r := range n.rx {
		if r.end <= now {
			releaseFromList(r)
			continue
		}
		kept = append(kept, r)
		if r.start <= now && r.end > busy {
			busy = r.end
		}
	}
	for i := len(kept); i < len(n.rx); i++ {
		n.rx[i] = nil
	}
	n.rx = kept
	return busy
}

// pendingSendFire retries a CSMA-deferred frame when its backoff expires.
func pendingSendFire(arg any) {
	ps := arg.(*pendingSend)
	sc, f, attempt := ps.sc, ps.f, ps.attempt
	sc.recyclePS(ps)
	sc.m.trySend(sc.m.nodes[f.Src], f, attempt)
}

func (m *Medium) trySend(src *Node, f Frame, attempt int) {
	if f.Bits <= 0 {
		f.Bits = DefaultFrameBits
	}

	// Every medium event of this frame — CSMA retry, delivery batch — is
	// scheduled on the shard owning the sender's region, so the sending
	// shard's heap carries its own traffic. The sender's shard context
	// supplies the scheduler, stats, bus, and pools.
	sc := m.ctxs[src.shard]
	sched := sc.sched

	now := sched.Now()
	if !m.params.DisableCSMA && attempt < maxCSMAAttempts {
		if busyUntil := m.channelBusyUntil(src, now); busyUntil > now {
			u := simtime.Draw(sc.seed, simtime.DrawCSMA, f.ID, uint64(attempt))
			backoff := time.Duration(u * float64(csmaSlot) * float64(uint(1)<<uint(min(attempt, 4))))
			ps := sc.acquirePS()
			ps.f = f
			ps.attempt = attempt + 1
			sched.AtEventOwned(busyUntil+backoff, simtime.OwnerRadio, pendingSendFire, ps)
			return
		}
	}

	start := now
	if src.txBusyUntil > start {
		start = src.txBusyUntil
	}
	airtime := m.Airtime(f.Bits)
	end := start + airtime
	src.txBusyUntil = end

	sc.stats.RecordSend(f.Kind, f.Bits)
	if bus := sc.bus; bus.Active() {
		bus.Emit(obs.Event{
			At: start, Type: obs.EvFrameSent, Mote: int(f.Src), Peer: int(f.Dst),
			Pos: src.pos, Kind: f.Kind, Bits: f.Bits,
			Origin: int(f.Corr.Origin), Seq: uint64(f.Corr.Seq), Frame: f.ID,
		})
	}

	batch := sc.acquireBatch()
	deliverAt := end + m.params.PropDelay
	// lookahead is the conservative bound boundary deliveries must clear:
	// one packet time. deliverAt - now ≥ airtime + PropDelay always holds
	// (start ≥ now), which is exactly what lets the free-running
	// conservative executor advance a shard to the window edge.
	lookahead := airtime + m.params.PropDelay
	intended := 0
	// The neighbor list is exactly the in-range receiver set in ascending
	// id order — the same nodes the old full-field scan selected — held as
	// node pointers, so the per-frame cost is O(receivers) with no
	// per-receiver lookup.
	for _, dst := range m.neighborsOf(src) {
		if m.faults != nil && !m.faults.Linked(start, f.Src, dst.id) {
			// Partition fault: the link is severed, so the frame neither
			// reaches this receiver nor occupies its channel.
			continue
		}
		isTarget := f.Dst == Broadcast || f.Dst == dst.id
		if isTarget {
			intended++
		}
		if dst.shard != src.shard {
			// Cross-shard receiver: CSMA occupancy is shard-local during
			// the window, so a cross-shard frame cannot be sensed or
			// collided with until the barrier. Target receptions cross at
			// the window barrier: loss is drawn here and the delivery is
			// buffered in the sender's outbox until FlushBoundary, which
			// inserts the frame into the receiver's occupancy list so it
			// collides there like a local frame. Non-target cross-shard
			// receivers see no occupancy at all — that residual
			// approximation is what the statistical equivalence battery
			// validates.
			if !isTarget {
				continue
			}
			sc.boundary++
			if deliverAt+shardMutSkew-now < lookahead {
				sc.late++
			}
			lost := sc.lost(f.ID, dst.id, start)
			if !lost {
				// The sender-side delivered count cannot see a collision
				// resolved later on the receiver's shard; a frame whose only
				// receptions were cross-shard collisions is therefore not
				// counted undelivered. Loss accounting at the receiver is
				// exact.
				batch.delivered++
			}
			sc.out = append(sc.out, crossRec{
				dst: dst, f: f,
				start: start + shardMutSkew, end: end + shardMutSkew,
				at: deliverAt + shardMutSkew, lost: lost,
			})
			continue
		}
		m.scheduleReception(sc, dst, f, batch, start, end, now, isTarget, isTarget && sc.lost(f.ID, dst.id, start))
	}
	if intended == 0 {
		// Nobody could ever receive it: record immediately. No target
		// reception references the batch, so it recycles here.
		sc.stats.RecordUndelivered(f.Kind)
		sc.emitUndelivered(now, f, src.pos)
		sc.recycleBatch(batch)
		return
	}
	batch.f = f
	batch.pos = src.pos
	// One event delivers the whole batch in ascending receiver-id order and
	// then runs the undelivered check.
	sched.AtEventOwned(deliverAt, simtime.OwnerRadio, batchDeliver, batch)
}

// FlushBoundary drains every sending shard's cross-shard outbox at a
// window barrier, in shard order and then send order: each buffered target
// reception becomes a reception on the receiver's shard, inserted into its
// receiver's channel-occupancy list (corrupting any overlapping in-flight
// reception — boundary frames collide like local ones) and scheduled there
// at its arrival time. It also enforces the lookahead rule: a delivery
// that lands before the barrier time is late, as is one that Send found
// less than one packet time after its commit, and once any delivery has
// been late FlushBoundary returns an error — the bound is what licenses
// free-running, so the run is invalid. The medium's physics keep the
// bound; only the shardmut mutation build breaks it. Coordinator-only: all
// shard workers must be parked at the barrier when it runs, which is also
// what makes touching the receiver shard's occupancy lists and record
// pools here race-free.
func (m *Medium) FlushBoundary(window time.Duration) error {
	var late uint64
	for _, sc := range m.ctxs {
		for i := range sc.out {
			r := &sc.out[i]
			if r.at < window {
				sc.late++
			}
			dstCtx := m.ctxs[r.dst.shard]
			rx := dstCtx.acquireRX()
			rx.start, rx.end = r.start, r.end
			rx.dst, rx.f, rx.lost = r.dst, r.f, r.lost
			rx.hasEvent = true
			m.occupyChannel(r.dst, rx, window)
			dstCtx.sched.AtEventOwned(r.at, simtime.OwnerRadio, crossDeliver, rx)
			*r = crossRec{}
		}
		sc.out = sc.out[:0]
		late += sc.late
	}
	if late > 0 {
		return fmt.Errorf("radio: %d cross-shard deliveries violated the conservative lookahead bound of one packet time (barrier at %v)", late, window)
	}
	return nil
}

// crossDeliver resolves one cross-shard reception on the receiving shard.
// Its iid loss outcome was drawn at send time, and
// its delivered count taken there, so it carries no batch. Local
// receptions still in flight before the barrier may have delivered clean
// a window earlier than a serial run would allow — that one-window
// asymmetry is part of the approximation the statistical-equivalence
// battery validates.
func crossDeliver(arg any) { deliverReception(arg.(*reception)) }

// batchDeliver resolves every target reception of one frame in ascending
// receiver-id order, then the sender-side undelivered check. Each record's
// pool bookkeeping happens before its receiver callback runs (callbacks
// may send frames that reenter the medium and prune rx lists); the batch
// itself recycles only after the loop, so reentrant sends acquire distinct
// batch records.
func batchDeliver(arg any) {
	b := arg.(*deliveryBatch)
	sc := b.sc
	for i, rx := range b.rxs {
		b.rxs[i] = nil
		deliverReception(rx)
	}
	if b.delivered == 0 {
		sc.stats.RecordUndelivered(b.f.Kind)
		sc.emitUndelivered(sc.sched.Now(), b.f, b.pos)
	}
	sc.recycleBatch(b)
}

// scheduleReception models the frame occupying the channel at the receiver
// during [start, end] and, when the receiver is a target, adds the
// reception to the frame's delivery batch. Non-target receivers still
// experience channel occupancy (their concurrent receptions collide) but
// do not receive or account the frame. lost is a target's drawn iid loss.
func (m *Medium) scheduleReception(sc *shardCtx, dst *Node, f Frame, batch *deliveryBatch, start, end, now time.Duration, isTarget, lost bool) {
	rx := sc.acquireRX()
	rx.start, rx.end = start, end
	m.occupyChannel(dst, rx, now)

	if !isTarget {
		return
	}

	rx.lost = lost
	rx.dst = dst
	rx.f = f
	rx.tx = batch
	rx.hasEvent = true
	batch.rxs = append(batch.rxs, rx)
}

// occupyChannel inserts rx (spanning [rx.start, rx.end]) into dst's
// in-flight reception list: entries that ended before now and before the
// new frame's start are pruned, and every overlapping pair is corrupted
// (the new frame and the in-flight one both lose). Callers set rx.start
// and rx.end first.
func (m *Medium) occupyChannel(dst *Node, rx *reception, now time.Duration) {
	if !m.params.DisableCollisions {
		kept := dst.rx[:0]
		for _, other := range dst.rx {
			if other.end > now || other.end >= rx.start {
				kept = append(kept, other)
			} else {
				releaseFromList(other)
			}
		}
		for i := len(kept); i < len(dst.rx); i++ {
			dst.rx[i] = nil
		}
		dst.rx = kept
		for _, other := range dst.rx {
			if other.start < rx.end && rx.start < other.end {
				other.corrupted = true
				rx.corrupted = true
			}
		}
	}
	rx.inList = true
	dst.rx = append(dst.rx, rx)
}

// deliverReception resolves one target reception at its arrival time:
// collision corruption, iid loss, or delivery to the receiver callback.
// It is the one outcome resolver, for local and cross-shard receptions
// alike; only a local reception has a batch whose delivered count it
// bumps.
// Pool bookkeeping happens before the receiver callback runs, because the
// callback may send frames that reenter the medium and prune rx lists.
func deliverReception(rx *reception) {
	sc := rx.sc
	dst, f, tx := rx.dst, rx.f, rx.tx
	corrupted, lost := rx.corrupted, rx.lost
	rx.hasEvent = false
	rx.dst = nil
	rx.f = Frame{}
	rx.tx = nil
	if !rx.inList {
		sc.recycleRX(rx)
	}
	switch {
	case corrupted:
		sc.stats.RecordLoss(f.Kind, trace.LossCollision)
		sc.emitAtReceiver(obs.EvFrameLost, dst, f, "collision")
	case lost:
		sc.stats.RecordLoss(f.Kind, trace.LossRandom)
		sc.emitAtReceiver(obs.EvFrameLost, dst, f, "random")
	default:
		if tx != nil {
			tx.delivered++
		}
		sc.stats.RecordReceive(f.Kind)
		sc.emitAtReceiver(obs.EvFrameReceived, dst, f, "")
		if dst.recv != nil {
			dst.recv(f)
		}
	}
}

// emitAtReceiver publishes a reception-side frame event (received/lost)
// at the receiving node.
func (sc *shardCtx) emitAtReceiver(t obs.EventType, dst *Node, f Frame, cause string) {
	if bus := sc.bus; bus.Active() {
		bus.Emit(obs.Event{
			At: sc.sched.Now(), Type: t, Mote: int(dst.id), Peer: int(f.Src),
			Pos: dst.pos, Kind: f.Kind, Bits: f.Bits, Cause: cause,
			Origin: int(f.Corr.Origin), Seq: uint64(f.Corr.Seq), Frame: f.ID,
		})
	}
}

// emitUndelivered publishes a frame that reached no receiver.
func (sc *shardCtx) emitUndelivered(at time.Duration, f Frame, pos geom.Point) {
	if bus := sc.bus; bus.Active() {
		bus.Emit(obs.Event{
			At: at, Type: obs.EvFrameUndelivered, Mote: int(f.Src), Peer: int(f.Dst),
			Pos: pos, Kind: f.Kind, Bits: f.Bits,
			Origin: int(f.Corr.Origin), Seq: uint64(f.Corr.Seq), Frame: f.ID,
		})
	}
}
