// Package mote models a sensor node: a stationary device with a radio, a
// sensing suite sampled periodically, and a constrained CPU that processes
// received messages from a bounded queue. The CPU model is what produces
// the paper's Figure 5 breakdown — at very small heartbeat periods, message
// processing (not channel bandwidth) becomes the bottleneck and tracking
// performance declines.
package mote

import (
	"fmt"
	"math/rand"
	"time"

	"envirotrack/internal/arena"
	"envirotrack/internal/geom"
	"envirotrack/internal/obs"
	"envirotrack/internal/phenomena"
	"envirotrack/internal/radio"
	"envirotrack/internal/sensor"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

// Config holds the per-mote resource parameters.
type Config struct {
	// ServiceTime is the CPU time consumed to process one received frame.
	// Zero models an infinitely fast CPU.
	ServiceTime time.Duration
	// QueueCap bounds the number of frames awaiting processing; arrivals
	// beyond it are dropped (accounted as overload loss). Zero means
	// DefaultQueueCap.
	QueueCap int
	// SensePeriod is the interval between sensor scans. Zero means
	// DefaultSensePeriod.
	SensePeriod time.Duration
}

// Default resource parameters. The service time approximates a few
// milliseconds of protocol processing on a 4 MHz MICA-class CPU; the queue
// capacity matches a small TinyOS task/message queue.
const (
	DefaultQueueCap    = 8
	DefaultSensePeriod = 100 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = DefaultQueueCap
	}
	if c.SensePeriod <= 0 {
		c.SensePeriod = DefaultSensePeriod
	}
	return c
}

// FrameHandler consumes a received frame. It returns true when the frame
// was recognized; dispatch stops at the first handler that consumes it.
type FrameHandler func(radio.Frame) bool

// Mote is one simulated sensor node. It is driven by the simulation
// scheduler and is not safe for concurrent use.
type Mote struct {
	id     radio.NodeID
	pos    geom.Point
	sched  *simtime.Scheduler
	medium *radio.Medium
	field  *phenomena.Field
	model  *sensor.Model
	cfg    Config
	rng    *rand.Rand
	stats  *trace.Stats
	bus    *obs.Bus

	handlers []FrameHandler

	// hot is the struct-of-arrays home of the mote's failure flag and
	// CPU-queue depth (see HotState); hotIdx is this mote's row. A
	// standalone mote owns a private single-row HotState; BindHot moves the
	// mote into a network-owned shared one.
	hot    *HotState
	hotIdx int

	// CPU state.
	busyUntil time.Duration
	// taskFree pools the CPU-queue completion records (intrusive list);
	// refills come from the mote-local arena so a queue's records sit in
	// one block.
	taskFree  *cpuTask
	taskArena arena.Arena[cpuTask]

	// corrSeq numbers correlated messages originated by this mote. All
	// layers mint from this one counter, so (origin, seq) identifies a
	// message uniquely within a run regardless of kind or label.
	corrSeq uint32
}

// cpuTask is one queued frame awaiting its CPU service-time completion.
// Records are pooled per mote and recycled when the completion fires.
type cpuTask struct {
	m    *Mote
	f    radio.Frame
	next *cpuTask
}

// New registers a mote on the medium at the given position. The sensing
// model may be nil for a pure relay node.
func New(
	id radio.NodeID,
	pos geom.Point,
	sched *simtime.Scheduler,
	medium *radio.Medium,
	field *phenomena.Field,
	model *sensor.Model,
	cfg Config,
	rng *rand.Rand,
	stats *trace.Stats,
) (*Mote, error) {
	m := &Mote{
		id:     id,
		pos:    pos,
		sched:  sched,
		medium: medium,
		field:  field,
		model:  model,
		cfg:    cfg.withDefaults(),
		rng:    rng,
		stats:  stats,
	}
	m.hot = NewHotState()
	m.hotIdx = m.hot.Register(pos)
	if err := medium.AddNode(id, pos, m.onFrame); err != nil {
		return nil, fmt.Errorf("mote %d: %w", id, err)
	}
	return m, nil
}

// BindHot re-registers the mote into a shared (network-owned) HotState and
// returns its row index. It must be called before the simulation starts;
// the mote's hot fields start from their zero state in the new arena.
func (m *Mote) BindHot(h *HotState) int {
	m.hot = h
	m.hotIdx = h.Register(m.pos)
	return m.hotIdx
}

// Hot returns the mote's hot-state arena and its row index in it.
func (m *Mote) Hot() (*HotState, int) { return m.hot, m.hotIdx }

// ID returns the mote's node id.
func (m *Mote) ID() radio.NodeID { return m.id }

// Pos returns the mote's position.
func (m *Mote) Pos() geom.Point { return m.pos }

// Scheduler exposes the simulation scheduler for protocol timers.
func (m *Mote) Scheduler() *simtime.Scheduler { return m.sched }

// Rand returns the mote's deterministic random source (for jitter).
func (m *Mote) Rand() *rand.Rand { return m.rng }

// NextCorrSeq returns a fresh correlation sequence number (1-based) for a
// message originated by this mote. Relays and rebroadcasts must preserve
// the original radio.Corr rather than mint a new one.
func (m *Mote) NextCorrSeq() uint32 {
	m.corrSeq++
	return m.corrSeq
}

// Config returns the mote's resource configuration (defaults applied).
func (m *Mote) Config() Config { return m.cfg }

// SetObserver attaches the observability bus. A nil bus disables emission.
func (m *Mote) SetObserver(bus *obs.Bus) { m.bus = bus }

// Obs returns the mote's observability bus; protocol layers built on the
// mote (group, transport, directory) emit through it. May be nil.
func (m *Mote) Obs() *obs.Bus { return m.bus }

// Queued returns the number of frames waiting in the CPU queue (series
// probe for the cpu_queue column).
func (m *Mote) Queued() int { return m.hot.Queued(m.hotIdx) }

// AddFrameHandler appends a frame handler; handlers run in registration
// order until one consumes the frame.
func (m *Mote) AddFrameHandler(h FrameHandler) {
	m.handlers = append(m.handlers, h)
}

// Fail kills the mote: it stops sensing, processing, and transmitting until
// Restore is called. Used for fault injection (Figure 5's worst case).
func (m *Mote) Fail() {
	if m.hot.failed[m.hotIdx] {
		return
	}
	m.hot.failed[m.hotIdx] = true
	if bus := m.bus; bus.Active() {
		bus.Emit(obs.Event{
			At: m.sched.Now(), Type: obs.EvMoteFailed, Mote: int(m.id), Pos: m.pos,
		})
	}
}

// Restore revives a failed mote.
func (m *Mote) Restore() {
	if !m.hot.failed[m.hotIdx] {
		return
	}
	m.hot.failed[m.hotIdx] = false
	if bus := m.bus; bus.Active() {
		bus.Emit(obs.Event{
			At: m.sched.Now(), Type: obs.EvMoteRestored, Mote: int(m.id), Pos: m.pos,
		})
	}
}

// Failed reports whether the mote is currently failed.
func (m *Mote) Failed() bool { return m.hot.failed[m.hotIdx] }

// Sense samples the sensing model immediately, against a snapshot of the
// field resolved for this call, and returns the reading. Every channel is
// evaluated, so the reading is self-contained: its values stay valid after
// later scans. It returns a zero reading when the mote has no sensing
// model.
func (m *Mote) Sense() sensor.Reading {
	if m.model == nil {
		return sensor.Reading{At: m.sched.Now(), MoteID: int(m.id), Position: m.pos}
	}
	var env phenomena.Snapshot
	m.field.Resolve(m.sched.Now(), &env)
	return m.model.Sample(&env, int(m.id), m.pos)
}

// Send transmits a frame from this mote. Failed motes transmit nothing.
func (m *Mote) Send(kind trace.Kind, dst radio.NodeID, bits int, payload any) {
	m.SendTraced(kind, dst, bits, payload, radio.Corr{})
}

// SendTraced is Send with a causal-correlation header: every frame event
// the transmission produces carries corr's (origin, seq) key, so span
// sinks can tie the hop to its logical message.
func (m *Mote) SendTraced(kind trace.Kind, dst radio.NodeID, bits int, payload any, corr radio.Corr) {
	if m.hot.failed[m.hotIdx] {
		return
	}
	m.medium.Send(radio.Frame{Kind: kind, Src: m.id, Dst: dst, Bits: bits, Payload: payload, Corr: corr})
}

// Broadcast transmits a frame to every node in range.
func (m *Mote) Broadcast(kind trace.Kind, bits int, payload any) {
	m.Send(kind, radio.Broadcast, bits, payload)
}

// BroadcastTraced is Broadcast with a causal-correlation header.
func (m *Mote) BroadcastTraced(kind trace.Kind, bits int, payload any, corr radio.Corr) {
	m.SendTraced(kind, radio.Broadcast, bits, payload, corr)
}

// onFrame is the radio reception callback: it feeds the CPU queue.
func (m *Mote) onFrame(f radio.Frame) {
	if m.hot.failed[m.hotIdx] {
		return
	}
	if m.cfg.ServiceTime <= 0 {
		m.dispatch(f)
		return
	}
	if m.hot.Queued(m.hotIdx) >= m.cfg.QueueCap {
		if m.stats != nil {
			m.stats.RecordLoss(f.Kind, trace.LossOverload)
		}
		if bus := m.bus; bus.Active() {
			bus.Emit(obs.Event{
				At: m.sched.Now(), Type: obs.EvCPUOverload, Mote: int(m.id),
				Peer: int(f.Src), Pos: m.pos, Kind: f.Kind, Bits: f.Bits,
				Origin: int(f.Corr.Origin), Seq: uint64(f.Corr.Seq), Frame: f.ID,
			})
		}
		return
	}
	m.hot.queued[m.hotIdx]++
	now := m.sched.Now()
	start := now
	if m.busyUntil > start {
		start = m.busyUntil
	}
	done := start + m.cfg.ServiceTime
	m.busyUntil = done
	t := m.acquireTask()
	t.f = f
	m.sched.AtEventOwned(done, simtime.OwnerMote, cpuTaskDone, t)
}

// cpuTaskDone completes one frame's CPU service: the record is recycled
// before dispatch, which may reenter the queue by sending frames.
func cpuTaskDone(arg any) {
	t := arg.(*cpuTask)
	m, f := t.m, t.f
	t.f = radio.Frame{}
	t.next = m.taskFree
	m.taskFree = t
	m.hot.queued[m.hotIdx]--
	if m.hot.failed[m.hotIdx] {
		return
	}
	m.dispatch(f)
}

func (m *Mote) acquireTask() *cpuTask {
	if t := m.taskFree; t != nil {
		m.taskFree = t.next
		t.next = nil
		return t
	}
	t := m.taskArena.New()
	t.m = m
	return t
}

func (m *Mote) dispatch(f radio.Frame) {
	for _, h := range m.handlers {
		if h(f) {
			return
		}
	}
}
