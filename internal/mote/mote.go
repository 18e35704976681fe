// Package mote models a sensor node: a stationary device with a radio, a
// sensing suite sampled periodically, and a constrained CPU that processes
// received messages from a bounded queue. The CPU model is what produces
// the paper's Figure 5 breakdown — at very small heartbeat periods, message
// processing (not channel bandwidth) becomes the bottleneck and tracking
// performance declines.
package mote

import (
	"fmt"
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
}

// DefaultQueueCap matches a small TinyOS task/message queue.
const DefaultQueueCap = 8

// SensePeriod is the interval between sensor scans.
const SensePeriod = 100 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = DefaultQueueCap
	}
	return c
}

// Env is what the motes of one scheduler shard share: the shard's
// runtime (scheduler, run seed, stats, bus), the network's medium and
// field, the motes' configuration, the network's HotState, its coherence
// ledger and the settings of the middleware stack on every mote. A
// network builds one per shard; a mote, and every layer on it, reads all
// of them through its env, so no mote keeps a copy.
type Env struct {
	radio.ShardRuntime
	Medium *radio.Medium
	Field  *phenomena.Field
	// Config has its defaults applied.
	Config Config
	Hot    *HotState
	// Ledger records the tracking backends' label events (required).
	Ledger *trace.Ledger

	// Bounds is the field extent the directory hashes type names into.
	Bounds geom.Rect
	// UseDirectory enables directory registration of led labels; the
	// stress experiments disable it to match the paper's traffic mix.
	UseDirectory bool
	// Backend is the tracking backend of context types attached without
	// one; empty means the leader backend.
	Backend string
}

// NewEnv returns the environment of motes running on rt's shard.
func NewEnv(rt radio.ShardRuntime, medium *radio.Medium, field *phenomena.Field, cfg Config, hot *HotState) *Env {
	return &Env{ShardRuntime: rt, Medium: medium, Field: field, Config: cfg.withDefaults(), Hot: hot}
}

// Mote is one simulated sensor node. It holds only its own state; what
// it shares with the other motes of its shard lives in its Env, and its
// position, failure flag and CPU-queue depth in its row of the env's
// HotState. It is driven by the simulation scheduler and is not safe for
// concurrent use.
type Mote struct {
	// node is the mote's radio node, which holds its id and position.
	node  *radio.Node
	env   *Env
	model *sensor.Model
	// rx consumes the frames the CPU dispatches: the protocol stack on
	// the mote, the one place that decides which layer a frame is for.
	rx radio.Receiver

	// CPU state.
	busyUntil time.Duration
	// taskFree pools the CPU-queue completion records (intrusive list);
	// refills come from the mote-local arena so a queue's records sit in
	// one block.
	taskFree  *cpuTask
	taskArena arena.Arena[cpuTask]

	// row is the mote's row in env.Hot.
	row int32
	// corrSeq numbers correlated messages originated by this mote. All
	// layers mint from this one counter, so (origin, seq) identifies a
	// message uniquely within a run regardless of kind or label.
	corrSeq uint32
	// draws counts the mote's protocol draws, keying the next (Draw).
	draws uint32
}

// cpuTask is one queued frame awaiting its CPU service-time completion.
// Records are pooled per mote and recycled when the completion fires.
type cpuTask struct {
	m    *Mote
	f    radio.Frame
	next *cpuTask
}

// New allocates a mote and its radio node and initialises them (Init).
func New(id radio.NodeID, pos geom.Point, model *sensor.Model, env *Env) (*Mote, error) {
	m := new(Mote)
	if err := m.Init(new(radio.Node), id, pos, model, env); err != nil {
		return nil, err
	}
	return m, nil
}

// Init makes m a mote at the given position: it registers rn, the mote's
// radio node, on env's medium with m as its receiver, and gives m a row in
// env's HotState. The caller allocates m and rn, typically in one record,
// and must not copy or reuse either afterwards. The sensing model may be
// nil for a pure relay node. It must be called before the simulation
// starts.
func (m *Mote) Init(rn *radio.Node, id radio.NodeID, pos geom.Point, model *sensor.Model, env *Env) error {
	*m = Mote{node: rn, env: env, model: model}
	if err := env.Medium.AddNode(rn, id, pos, m); err != nil {
		return fmt.Errorf("mote %d: %w", id, err)
	}
	m.row = int32(env.Hot.register(pos))
	return nil
}

// Env returns the environment the mote shares with its shard.
func (m *Mote) Env() *Env { return m.env }

// Hot returns the mote's hot-state arena and its row index in it.
func (m *Mote) Hot() (*HotState, int) { return m.env.Hot, int(m.row) }

// ID returns the mote's node id.
func (m *Mote) ID() radio.NodeID { return m.node.ID() }

// Pos returns the mote's position.
func (m *Mote) Pos() geom.Point { return m.env.Hot.pos[m.row] }

// Scheduler exposes the simulation scheduler for protocol timers.
func (m *Mote) Scheduler() *simtime.Scheduler { return m.env.Sched }

// Medium returns the radio medium the mote transmits on.
func (m *Mote) Medium() *radio.Medium { return m.env.Medium }

// Neighbors returns the radio nodes in the mote's communication range, in
// ascending id order. Callers must not mutate the returned slice.
func (m *Mote) Neighbors() []*radio.Node { return m.env.Medium.Neighbors(m.node) }

// Draw returns the mote's next protocol draw in [0, 1), keyed by its id
// and draw count: no shard layout or other mote's draw moves it.
func (m *Mote) Draw() float64 {
	m.draws++
	return simtime.Draw(m.env.Seed, simtime.DrawMote, uint64(uint32(m.ID()))<<32|uint64(m.draws))
}

// NextCorrSeq returns a fresh correlation sequence number (1-based) for a
// message originated by this mote. Relays and rebroadcasts must preserve
// the original radio.Corr rather than mint a new one.
func (m *Mote) NextCorrSeq() uint32 {
	m.corrSeq++
	return m.corrSeq
}

// Config returns the mote's resource configuration (defaults applied).
func (m *Mote) Config() Config { return m.env.Config }

// Ledger returns the coherence ledger of the mote's env.
func (m *Mote) Ledger() *trace.Ledger { return m.env.Ledger }

// Obs returns the mote's observability bus; protocol layers built on the
// mote (group, transport, directory) emit through it. May be nil.
func (m *Mote) Obs() *obs.Bus { return m.env.Bus }

// Queued returns the number of frames waiting in the CPU queue (series
// probe for the cpu_queue column).
func (m *Mote) Queued() int { return m.env.Hot.Queued(int(m.row)) }

// SetReceiver installs the receiver of the frames the mote dispatches.
// It is set once, before the simulation starts; until then the mote
// drops what it receives.
func (m *Mote) SetReceiver(rx radio.Receiver) { m.rx = rx }

// Fail kills the mote: it stops sensing, processing, and transmitting until
// Restore is called. Used for fault injection (Figure 5's worst case).
func (m *Mote) Fail() {
	h := m.env.Hot
	if h.failed[m.row] {
		return
	}
	h.failed[m.row] = true
	if bus := m.env.Bus; bus.Active() {
		bus.Emit(obs.Event{
			At: m.env.Sched.Now(), Type: obs.EvMoteFailed, Mote: int(m.ID()), Pos: h.pos[m.row],
		})
	}
}

// Restore revives a failed mote.
func (m *Mote) Restore() {
	h := m.env.Hot
	if !h.failed[m.row] {
		return
	}
	h.failed[m.row] = false
	if bus := m.env.Bus; bus.Active() {
		bus.Emit(obs.Event{
			At: m.env.Sched.Now(), Type: obs.EvMoteRestored, Mote: int(m.ID()), Pos: h.pos[m.row],
		})
	}
}

// Failed reports whether the mote is currently failed.
func (m *Mote) Failed() bool { return m.env.Hot.failed[m.row] }

// Send transmits a frame from this mote. Failed motes transmit nothing.
func (m *Mote) Send(kind trace.Kind, dst radio.NodeID, bits int, payload any) {
	m.SendTraced(kind, dst, bits, payload, radio.Corr{})
}

// SendTraced is Send with a causal-correlation header: every frame event
// the transmission produces carries corr's (origin, seq) key, so span
// sinks can tie the hop to its logical message.
func (m *Mote) SendTraced(kind trace.Kind, dst radio.NodeID, bits int, payload any, corr radio.Corr) {
	if m.Failed() {
		return
	}
	m.env.Medium.Send(m.node, radio.Frame{Kind: kind, Dst: dst, Bits: bits, Payload: payload, Corr: corr})
}

// Broadcast transmits a frame to every node in range.
func (m *Mote) Broadcast(kind trace.Kind, bits int, payload any) {
	m.Send(kind, radio.Broadcast, bits, payload)
}

// BroadcastTraced is Broadcast with a causal-correlation header.
func (m *Mote) BroadcastTraced(kind trace.Kind, bits int, payload any, corr radio.Corr) {
	m.SendTraced(kind, radio.Broadcast, bits, payload, corr)
}

// Receive is the mote's radio reception: the medium hands it every frame
// the mote receives, and it feeds the CPU queue.
func (m *Mote) Receive(f radio.Frame) {
	env, h := m.env, m.env.Hot
	if h.failed[m.row] {
		return
	}
	if env.Config.ServiceTime <= 0 {
		m.dispatch(f)
		return
	}
	if int(h.queued[m.row]) >= env.Config.QueueCap {
		env.Stats.RecordLoss(f.Kind, trace.LossOverload)
		if bus := env.Bus; bus.Active() {
			bus.Emit(obs.Event{
				At: env.Sched.Now(), Type: obs.EvCPUOverload, Mote: int(m.ID()),
				Peer: int(f.Src), Pos: h.pos[m.row], Kind: f.Kind, Bits: f.Bits,
				Origin: int(f.Corr.Origin), Seq: uint64(f.Corr.Seq), Frame: f.ID,
			})
		}
		return
	}
	h.queued[m.row]++
	start := env.Sched.Now()
	if m.busyUntil > start {
		start = m.busyUntil
	}
	done := start + env.Config.ServiceTime
	m.busyUntil = done
	t := m.acquireTask()
	t.f = f
	env.Sched.AtEventOwned(done, simtime.OwnerMote, cpuTaskDone, t)
}

// cpuTaskDone completes one frame's CPU service: the record is recycled
// before dispatch, which may reenter the queue by sending frames.
func cpuTaskDone(arg any) {
	t := arg.(*cpuTask)
	m, f := t.m, t.f
	t.f = radio.Frame{}
	t.next = m.taskFree
	m.taskFree = t
	m.env.Hot.queued[m.row]--
	if m.Failed() {
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
	if m.rx != nil {
		m.rx.Receive(f)
	}
}
