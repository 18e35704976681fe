// Package radio simulates the shared wireless medium of a mote network: a
// disk-connectivity broadcast channel at the MICA motes' 50 kb/s, iid
// channel loss, and receiver-side collision corruption. There is no
// MAC-layer reliability, matching the paper's observation that "no
// reliability is implemented in the MAC layer of the MICA motes";
// collisions therefore grow with offered traffic.
//
// The send/receive path is the hottest code in the simulator (every frame
// occupies the channel of O(neighbors) receivers), so it is
// allocation-free in steady state: a receiver that only overhears a frame
// records its airtime by value in its occupancy list and takes no record;
// target reception, delivery-batch, and CSMA-retry records are pooled on
// intrusive free lists, their completion events are scheduled through the
// scheduler's typed-payload API (no closure captures), spatial queries
// filter the cells of a geom.CellIndex into reusable scratch, and
// neighbor lists are carved from per-medium slabs.
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
	"cmp"
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

// BitRate is the MICA mote channel capacity in bits per second.
const BitRate = 50_000.0

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

// csmaSlot is the carrier-sense backoff slot; the backoff window doubles
// per deferral up to 16 slots.
const csmaSlot = time.Millisecond

// maxCSMAAttempts bounds carrier-sense deferrals; after that the frame is
// transmitted regardless (bounded latency, like a saturated CSMA MAC).
const maxCSMAAttempts = 6

// Receiver takes the frames a node receives successfully. Receive runs
// on the scheduler thread at the frame's arrival time.
type Receiver interface {
	Receive(Frame)
}

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
	// Linked reports whether a frame from a sender at src can reach a
	// receiver at dst at sim time now; false models a network partition
	// severing the link.
	Linked(now time.Duration, src, dst geom.Point) bool
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
// move. Spatial queries run against a geom.CellIndex over the registered
// nodes, so resolving the nodes near a point costs O(found) instead of a
// scan over the whole field. The send path and neighbour queries take the
// sender's *Node, so no hot path looks a node up by id.
type Medium struct {
	params Params

	// order is the registered nodes in ascending id order, the medium's
	// one index: Lookup and AddNode binary-search it.
	order []*Node
	// faults, when non-nil, overrides loss probability, severs partitioned
	// links, and duplicates frames (chaos harness). Nil in nominal runs.
	faults FaultInjector

	// index is the spatial index over order, with cells at least
	// CommRadius wide, and pts holds the positions of order, which a
	// query reads for the indices the index yields. Both are nil until
	// the first spatial query: a network
	// registers its whole field before it asks for a neighbour, so the
	// index is built once over the final layout. AddNode drops them, and
	// so does the resolution of the last unresolved neighbour list, since
	// no query follows it until AddNode adds a node.
	index *geom.CellIndex
	pts   []geom.Point
	// resolved counts nodes whose neighbor list is resolved. While it is
	// zero — through a network's whole set-up — AddNode has no list to
	// drop and skips the range query.
	resolved int
	// lists and listHdrs hold every resolved neighbour list and its
	// header, so resolution allocates only when a slab block fills.
	lists    arena.Slab[*Node]
	listHdrs arena.Arena[[]*Node]

	// found is the query scratch, reused across calls (spatial queries
	// run on the coordinator/setup path, never concurrently): the indices
	// into order of the nodes a query found.
	found []int32

	// ctxs are the per-shard execution contexts, in shard order.
	ctxs []*shardCtx

	// shardOfPos maps a position to its shard (nil: everything on shard
	// 0).
	shardOfPos func(geom.Point) int32
}

// Node is one registered node on the medium. Protocol layers see it
// read-only, through ID and Pos, and hand it to Send and Neighbors.
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
	// a pointer so that a node whose list is never resolved spends 8 bytes
	// on it, not a 24-byte slice header.
	nbrs *[]*Node
	// txBusyUntil serializes a node's own transmissions: a mote has one
	// radio and cannot transmit two frames at once.
	txBusyUntil time.Duration
	// rx is the node's channel occupancy: one entry per frame on the air
	// around it, kept for collision detection and carrier sense. Pruning
	// leaves the entries past its length as they are: they point only at
	// pooled records, which live as long as the medium.
	rx []occupancy
}

// occupancy is one frame occupying a receiver's channel during
// [start, end]. r is the frame's target reception at the receiver, nil
// when the receiver only overhears it: an overheard frame corrupts the
// receptions it overlaps and keeps the channel busy, but nothing of its
// own can be lost, so it needs no record.
type occupancy struct {
	start, end time.Duration
	r          *reception
}

// ID returns the node's id.
func (n *Node) ID() NodeID { return n.id }

// Pos returns the node's position.
func (n *Node) Pos() geom.Point { return n.pos }

// reception is one frame's delivery to one of its targets. Records are
// pooled: a reception is recycled once its occupancy is out of the
// receiver's rx list (inList) and its delivery event has fired
// (hasEvent). A target reception on the sender's shard belongs to the
// frame's batch (tx); one that crossed a shard boundary has no batch and
// its own delivery event.
type reception struct {
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

// pendingSend is a CSMA-deferred frame from src awaiting its backoff
// timer. Pooled.
type pendingSend struct {
	sc      *shardCtx
	src     *Node
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
// channel-occupancy list for collision detection; it arrives at end.
type crossRec struct {
	dst        *Node
	f          Frame
	start, end time.Duration
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
	k := len(rts)
	m := &Medium{
		params:     p,
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

// Params returns the medium configuration.
func (m *Medium) Params() Params {
	return m.params
}

// PrebuildNeighbors resolves the neighbor list of every registered node,
// through the same path as the serial engine's lazy resolution. A run on
// several shards calls it once before the shard workers start: afterwards
// the index and the neighbor lists are only read, which is safe from
// concurrent shard goroutines.
func (m *Medium) PrebuildNeighbors() {
	for _, n := range m.order {
		m.Neighbors(n)
	}
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

// AddNode registers a stationary node in n, which the caller allocates
// (a mote keeps its node in its own record) and must not copy or reuse
// afterwards. It returns an error, leaving n unregistered, if the id is
// taken or outside [0, 2^32), the 32 bits a transmission id keeps of it.
// Registration is the only topology mutation (nodes never move or
// deregister). It drops exactly the resolved neighbor lists the newcomer
// joins, those of nodes within CommRadius of pos, which it finds through
// the index before the insert, and then drops the index, whose entries
// name positions in the old order.
func (m *Medium) AddNode(n *Node, id NodeID, pos geom.Point, recv Receiver) error {
	if id < 0 || uint64(id) > math.MaxUint32 {
		return fmt.Errorf("radio: node id %d outside [0, 2^32)", id)
	}
	i, taken := slices.BinarySearchFunc(m.order, id, byID)
	if taken {
		return fmt.Errorf("radio: node %d already registered", id)
	}
	if m.resolved > 0 {
		for _, i := range m.nodesWithin(pos, m.params.CommRadius) {
			if o := m.order[i]; o.nbrs != nil {
				o.nbrs = nil
				m.resolved--
			}
		}
	}
	m.index, m.pts = nil, nil
	*n = Node{id: id, pos: pos, recv: recv}
	if m.shardOfPos != nil {
		n.shard = m.shardOfPos(pos)
	}
	m.order = slices.Insert(m.order, i, n)
	return nil
}

// Lookup returns the registered node with the given id, by binary search
// over the id-ordered registrations. It serves callers that name a node
// by id; the send path and neighbour queries take the *Node itself.
func (m *Medium) Lookup(id NodeID) (*Node, bool) {
	i, ok := slices.BinarySearchFunc(m.order, id, byID)
	if !ok {
		return nil, false
	}
	return m.order[i], true
}

// byID orders nodes against an id, for binary search over ascending ids.
func byID(n *Node, id NodeID) int { return cmp.Compare(n.id, id) }

// nodesWithin finds all nodes within radius r of p (inclusive) and returns
// their indices into order, ascending and so in id order, in the m.found
// scratch. It builds the index at the first query, scans only the
// cells the query disc covers and sorts what it finds, in O(k log k) for
// k found.
func (m *Medium) nodesWithin(p geom.Point, r float64) []int32 {
	if r < 0 || len(m.order) == 0 {
		return nil
	}
	if m.index == nil {
		m.pts = make([]geom.Point, len(m.order))
		for i, n := range m.order {
			m.pts[i] = n.pos
		}
		m.index = geom.NewCellIndex(m.pts, m.params.CommRadius)
	}
	found, pts := m.found[:0], m.pts
	x0, y0, x1, y1 := m.index.Cover(p, r)
	for y := y0; y <= y1; y++ {
		for _, i := range m.index.Strip(y, x0, x1) {
			if pts[i].Within(p, r) {
				found = append(found, i)
			}
		}
	}
	slices.Sort(found)
	m.found = found
	return found
}

// Neighbors returns the nodes within communication radius of n, a node
// registered on m, in ascending id order. Callers must not mutate the
// returned slice. The list is resolved on first use and stays correct
// because the topology only mutates at registration time (AddNode), which
// drops exactly the lists the new node appears in. Resolution goes
// through the index, so it costs O(neighbors), not O(total nodes), and
// the list and its header are carved from the medium's slabs.
func (m *Medium) Neighbors(n *Node) []*Node {
	if n.nbrs != nil {
		return *n.nbrs
	}
	found := m.nodesWithin(n.pos, m.params.CommRadius)
	// n is in its own range unless its position is not finite.
	size := len(found)
	if n.pos.Within(n.pos, m.params.CommRadius) {
		size--
	}
	var nb []*Node
	if size > 0 {
		nb = m.lists.Make(size)[:0]
		for _, i := range found {
			if o := m.order[i]; o != n {
				nb = append(nb, o)
			}
		}
	}
	n.nbrs = m.listHdrs.New()
	*n.nbrs = nb
	if m.resolved++; m.resolved == len(m.order) {
		m.index, m.pts = nil, nil
	}
	return nb
}

// Airtime returns the channel occupancy of a frame of the given size at
// BitRate; a size <= 0 is a DefaultFrameBits frame. The send path uses it
// too.
func Airtime(bits int) time.Duration {
	if bits <= 0 {
		bits = DefaultFrameBits
	}
	return time.Duration(float64(bits) / BitRate * float64(time.Second))
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

// release is called when o leaves its receiver's rx list; a target
// reception's record recycles once its delivery event has fired too.
func (o occupancy) release() {
	if rx := o.r; rx != nil {
		rx.inList = false
		if !rx.hasEvent {
			rx.sc.recycleRX(rx)
		}
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
	ps.src = nil
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

// Send transmits a frame from src, a node registered on m, and sets
// f.Src to its id. The sender carrier-senses first: while the channel
// around it is busy (its own transmission or an audible reception in
// progress) the frame is deferred with random backoff, up to
// maxCSMAAttempts times. Delivery to in-range receivers happens when the
// frame's airtime ends, subject to loss and collisions (hidden
// terminals still collide).
func (m *Medium) Send(src *Node, f Frame) {
	f.Src = src.id
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
	for _, o := range n.rx {
		if o.end <= now {
			o.release()
			continue
		}
		kept = append(kept, o)
		if o.start <= now && o.end > busy {
			busy = o.end
		}
	}
	n.rx = kept
	return busy
}

// pendingSendFire retries a CSMA-deferred frame when its backoff expires.
func pendingSendFire(arg any) {
	ps := arg.(*pendingSend)
	sc, src, f, attempt := ps.sc, ps.src, ps.f, ps.attempt
	sc.recyclePS(ps)
	sc.m.trySend(src, f, attempt)
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
			ps.src = src
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
	airtime := Airtime(f.Bits)
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
	// The frame arrives as its airtime ends. Boundary deliveries must clear
	// the conservative bound of one packet time: end - now ≥ airtime always
	// holds (start ≥ now), which is exactly what lets the free-running
	// conservative executor advance a shard to the window edge.
	intended := 0
	// The neighbor list is exactly the in-range receiver set in ascending
	// id order — the same nodes the old full-field scan selected — held as
	// node pointers, so the per-frame cost is O(receivers) with no
	// per-receiver lookup.
	for _, dst := range m.Neighbors(src) {
		if m.faults != nil && !m.faults.Linked(start, src.pos, dst.pos) {
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
			if end+shardMutSkew-now < airtime {
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
				start: start + shardMutSkew, end: end + shardMutSkew, lost: lost,
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
	sched.AtEventOwned(end, simtime.OwnerRadio, batchDeliver, batch)
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
			if r.end < window {
				sc.late++
			}
			dstCtx := m.ctxs[r.dst.shard]
			rx := dstCtx.acquireRX()
			rx.dst, rx.f, rx.lost = r.dst, r.f, r.lost
			rx.hasEvent = true
			m.occupyChannel(r.dst, occupancy{start: r.start, end: r.end, r: rx}, window)
			dstCtx.sched.AtEventOwned(r.end, simtime.OwnerRadio, crossDeliver, rx)
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
// during [start, end] and, when the receiver is a target, adds a
// reception to the frame's delivery batch. Non-target receivers still
// experience channel occupancy (their concurrent receptions collide) but
// do not receive or account the frame, so they take no record. lost is a
// target's drawn iid loss.
func (m *Medium) scheduleReception(sc *shardCtx, dst *Node, f Frame, batch *deliveryBatch, start, end, now time.Duration, isTarget, lost bool) {
	if !isTarget {
		m.occupyChannel(dst, occupancy{start: start, end: end}, now)
		return
	}
	rx := sc.acquireRX()
	rx.lost = lost
	rx.dst = dst
	rx.f = f
	rx.tx = batch
	rx.hasEvent = true
	m.occupyChannel(dst, occupancy{start: start, end: end, r: rx}, now)
	batch.rxs = append(batch.rxs, rx)
}

// occupyChannel inserts o into dst's occupancy list: entries that ended
// before now and before o's start are pruned, and with collisions on every
// overlapping pair is corrupted (the new frame and the in-flight one both
// lose; an overheard frame has no reception to lose).
func (m *Medium) occupyChannel(dst *Node, o occupancy, now time.Duration) {
	// One pass prunes and, with collisions on, checks overlap: a pruned
	// entry ended before o starts, so it overlaps nothing of o. Pruning
	// runs in both modes, or a receiver that never sends would keep every
	// occupancy and target record it was ever given.
	collide := !m.params.DisableCollisions
	kept := dst.rx[:0]
	for _, other := range dst.rx {
		if other.end <= now && other.end < o.start {
			other.release()
			continue
		}
		kept = append(kept, other)
		if collide && other.start < o.end && o.start < other.end {
			other.corrupt()
			o.corrupt()
		}
	}
	dst.rx = kept
	if o.r != nil {
		o.r.inList = true
	}
	dst.rx = append(dst.rx, o)
}

// corrupt marks o's target reception, if any, as lost to a collision.
func (o occupancy) corrupt() {
	if o.r != nil {
		o.r.corrupted = true
	}
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
			dst.recv.Receive(f)
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
