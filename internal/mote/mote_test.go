package mote

import (
	"fmt"
	"slices"
	"testing"
	"time"
	"unsafe"

	"envirotrack/internal/geom"
	"envirotrack/internal/phenomena"
	"envirotrack/internal/radio"
	"envirotrack/internal/sensor"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

type harness struct {
	group  *simtime.ShardGroup
	sched  *simtime.Scheduler
	rt     radio.ShardRuntime
	medium *radio.Medium
	field  *phenomena.Field
	stats  *trace.Stats
	hot    *HotState
	envs   map[Config]*Env
}

func newHarness(t *testing.T, p radio.Params) *harness {
	t.Helper()
	group := simtime.NewShardGroup(1)
	sched := group.Shard(0)
	var stats trace.Stats
	rt := radio.ShardRuntime{Sched: sched, Seed: 1, Stats: &stats}
	return &harness{
		group:  group,
		sched:  sched,
		rt:     rt,
		medium: radio.New(p, nil, rt),
		field:  phenomena.NewField(),
		stats:  &stats,
		hot:    NewHotState(),
		envs:   make(map[Config]*Env),
	}
}

// env returns the harness's env for motes configured with cfg; every env
// shares the harness's shard, medium, field and HotState.
func (h *harness) env(cfg Config) *Env {
	if h.envs[cfg] == nil {
		h.envs[cfg] = NewEnv(h.rt, h.medium, h.field, cfg, h.hot)
	}
	return h.envs[cfg]
}

func (h *harness) mote(t *testing.T, id radio.NodeID, pos geom.Point, model *sensor.Model, cfg Config) *Mote {
	t.Helper()
	m, err := New(id, pos, model, h.env(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// rxFunc adapts a function to a Receiver.
type rxFunc func(radio.Frame)

func (f rxFunc) Receive(fr radio.Frame) { f(fr) }

// scanFunc adapts a function to a Scanner that reports the function's
// result as the scan's quietness.
type scanFunc func(row int, rd *sensor.Reading) (quiet bool)

func (f scanFunc) Scan(row int, rd *sensor.Reading) bool { return f(row, rd) }

// attach attaches the context type ctxType to the motes, with fn as the
// type's scanner. The scanner never reports a quiet scan, so the sweep
// scans every live mote the type is attached to.
func attach(ctxType string, fn func(rd *sensor.Reading), motes ...*Mote) {
	for _, m := range motes {
		h, i := m.Hot()
		mask, _ := h.CtxMask(ctxType)
		h.Attach(i, mask, scanFunc(func(_ int, rd *sensor.Reading) bool {
			fn(rd)
			return false
		}))
	}
}

// runUntil advances the one-shard group to the deadline.
func (h *harness) runUntil(t *testing.T, deadline time.Duration) {
	t.Helper()
	if err := h.group.Run(deadline, 0, nil); err != nil {
		t.Fatal(err)
	}
}

// settle runs long enough for every frame in flight to be delivered and
// processed (the tests that use it arm no periodic timers).
func (h *harness) settle(t *testing.T) { h.runUntil(t, h.sched.Now()+time.Minute) }

func TestNewDuplicateID(t *testing.T) {
	h := newHarness(t, radio.Params{CommRadius: 2})
	h.mote(t, 1, geom.Pt(0, 0), nil, Config{})
	if _, err := New(1, geom.Pt(1, 1), nil, h.env(Config{})); err == nil {
		t.Fatal("expected duplicate-id error")
	}
	if n := h.hot.Len(); n != 1 {
		t.Errorf("HotState rows = %d after a rejected New, want 1", n)
	}
}

func TestNewRegistersOneHotRowPerMote(t *testing.T) {
	h := newHarness(t, radio.Params{CommRadius: 2})
	env := h.env(Config{})
	const n = 5
	motes := make([]*Mote, n)
	for i := range motes {
		m, err := New(radio.NodeID(i), geom.Pt(float64(i), 2), nil, env)
		if err != nil {
			t.Fatal(err)
		}
		motes[i] = m
	}
	if got := env.Hot.Len(); got != n {
		t.Fatalf("HotState rows = %d after %d New calls, want %d", got, n, n)
	}
	motes[3].Fail()
	for i, m := range motes {
		hot, row := m.Hot()
		if hot != env.Hot || row != i {
			t.Errorf("mote %d: Hot() = (%p, %d), want (%p, %d)", i, hot, row, env.Hot, i)
		}
		if m.Pos() != env.Hot.Pos(row) || m.Pos() != geom.Pt(float64(i), 2) {
			t.Errorf("mote %d: Pos() = %v, row position %v", i, m.Pos(), env.Hot.Pos(row))
		}
		if m.Failed() != env.Hot.Failed(row) || m.Failed() != (i == 3) {
			t.Errorf("mote %d: Failed() = %v, row flag %v", i, m.Failed(), env.Hot.Failed(row))
		}
	}
}

func TestMoteSize(t *testing.T) {
	// One Mote per node: it holds only the node's own state and reads
	// the shard-wide rest through its env.
	if size := unsafe.Sizeof(Mote{}); size > 128 {
		t.Errorf("unsafe.Sizeof(Mote{}) = %d B, want <= 128", size)
	}
}

func TestConfigDefaults(t *testing.T) {
	h := newHarness(t, radio.Params{CommRadius: 2})
	m := h.mote(t, 1, geom.Pt(0, 0), nil, Config{})
	cfg := m.Config()
	if cfg.QueueCap != DefaultQueueCap {
		t.Errorf("QueueCap = %d, want default %d", cfg.QueueCap, DefaultQueueCap)
	}
}

func TestSendAndDispatch(t *testing.T) {
	h := newHarness(t, radio.Params{CommRadius: 2})
	a := h.mote(t, 1, geom.Pt(0, 0), nil, Config{})
	b := h.mote(t, 2, geom.Pt(1, 0), nil, Config{})
	var got []string
	b.SetReceiver(rxFunc(func(f radio.Frame) { got = append(got, f.Payload.(string)) }))
	a.Send(trace.KindReading, 2, 0, "first")
	a.Send(trace.KindReading, 2, 0, "second")
	h.settle(t)
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Errorf("dispatch order = %v", got)
	}
}

func TestBroadcastReachesNeighbors(t *testing.T) {
	h := newHarness(t, radio.Params{CommRadius: 1.5})
	a := h.mote(t, 1, geom.Pt(0, 0), nil, Config{})
	received := 0
	b := h.mote(t, 2, geom.Pt(1, 0), nil, Config{})
	b.SetReceiver(rxFunc(func(radio.Frame) { received++ }))
	c := h.mote(t, 3, geom.Pt(5, 0), nil, Config{})
	c.SetReceiver(rxFunc(func(radio.Frame) { received += 100 }))
	a.Broadcast(trace.KindHeartbeat, 0, "hb")
	h.settle(t)
	if received != 1 {
		t.Errorf("received = %d, want 1 (only in-range neighbor)", received)
	}
}

func TestCPUServiceDelaysDispatch(t *testing.T) {
	h := newHarness(t, radio.Params{CommRadius: 2})
	a := h.mote(t, 1, geom.Pt(0, 0), nil, Config{})
	var at time.Duration
	b := h.mote(t, 2, geom.Pt(1, 0), nil, Config{ServiceTime: 10 * time.Millisecond})
	b.SetReceiver(rxFunc(func(radio.Frame) { at = h.sched.Now() }))
	a.Send(trace.KindReading, 2, 8, "x")
	h.settle(t)
	if at < 10*time.Millisecond {
		t.Errorf("dispatch at %v, want >= 10ms service delay", at)
	}
}

func TestCPUQueueSerializes(t *testing.T) {
	h := newHarness(t, radio.Params{CommRadius: 2, DisableCollisions: true})
	a := h.mote(t, 1, geom.Pt(0, 0), nil, Config{})
	c := h.mote(t, 3, geom.Pt(0, 1), nil, Config{})
	var times []time.Duration
	b := h.mote(t, 2, geom.Pt(1, 0), nil, Config{ServiceTime: 10 * time.Millisecond, QueueCap: 10})
	b.SetReceiver(rxFunc(func(radio.Frame) { times = append(times, h.sched.Now()) }))
	// Two frames from different senders arriving almost simultaneously: the
	// second is processed only after the first's service completes.
	a.Send(trace.KindReading, 2, 8, "x")
	c.Send(trace.KindReading, 2, 8, "y")
	h.settle(t)
	if len(times) != 2 {
		t.Fatalf("dispatched %d frames, want 2", len(times))
	}
	if times[1]-times[0] < 10*time.Millisecond-time.Microsecond {
		t.Errorf("second dispatch %v after first, want >= service time", times[1]-times[0])
	}
}

func TestCPUOverloadDropsFrames(t *testing.T) {
	h := newHarness(t, radio.Params{CommRadius: 2, DisableCollisions: true})
	senders := make([]*Mote, 5)
	for i := range senders {
		senders[i] = h.mote(t, radio.NodeID(10+i), geom.Pt(0, float64(i)*0.1), nil, Config{})
	}
	processed := 0
	b := h.mote(t, 2, geom.Pt(1, 0), nil, Config{ServiceTime: 100 * time.Millisecond, QueueCap: 2})
	b.SetReceiver(rxFunc(func(radio.Frame) { processed++ }))
	for _, s := range senders {
		s.Send(trace.KindReading, 2, 8, "x")
	}
	h.settle(t)
	if processed > 2 {
		t.Errorf("processed = %d, want <= queue cap 2", processed)
	}
	if got := h.stats.Kind(trace.KindReading).LostOverload; got == 0 {
		t.Error("expected overload losses to be recorded")
	}
}

func TestFailedMoteDoesNotSendProcessOrSense(t *testing.T) {
	h := newHarness(t, radio.Params{CommRadius: 2})
	a := h.mote(t, 1, geom.Pt(0, 0), nil, Config{})
	received := 0
	b := h.mote(t, 2, geom.Pt(1, 0), nil, Config{})
	b.SetReceiver(rxFunc(func(radio.Frame) { received++ }))

	a.Fail()
	if !a.Failed() {
		t.Error("Failed() = false after Fail")
	}
	a.Send(trace.KindReading, 2, 0, "x")
	h.settle(t)
	if received != 0 {
		t.Error("failed mote transmitted")
	}

	// Failed receiver drops frames.
	b.Fail()
	a.Restore()
	a.Send(trace.KindReading, 2, 0, "x")
	h.settle(t)
	if received != 0 {
		t.Error("failed mote processed a frame")
	}

	b.Restore()
	a.Send(trace.KindReading, 2, 0, "x")
	h.settle(t)
	if received != 1 {
		t.Error("restored mote did not process")
	}
}

// sweep returns a started sweep over the given motes.
func (h *harness) sweep(motes ...*Mote) *Sweep {
	sw := NewSweep(motes[0].env)
	for _, m := range motes {
		sw.Add(m)
	}
	sw.Start()
	return sw
}

func TestSensingScanInvokesScanners(t *testing.T) {
	h := newHarness(t, radio.Params{CommRadius: 2})
	h.field.Add(&phenomena.Target{
		Kind:            "vehicle",
		Traj:            phenomena.Stationary{At: geom.Pt(0, 0)},
		SignatureRadius: 1,
	})
	model := sensor.VehicleModel("vehicle")
	m := h.mote(t, 1, geom.Pt(0.5, 0), model, Config{})
	type scan struct {
		at     time.Duration
		detect float64
	}
	var scans []scan
	attach("tracker", func(rd *sensor.Reading) {
		v, _ := rd.Value("magnetic_detect")
		scans = append(scans, scan{rd.At(), v})
	}, m)
	sw := h.sweep(m)
	h.runUntil(t, 35*SensePeriod/10)
	if len(scans) != 3 {
		t.Fatalf("scans = %d, want 3", len(scans))
	}
	for i, sc := range scans {
		if want := time.Duration(i+1) * SensePeriod; sc.at != want {
			t.Errorf("scan %d at %v, want %v", i, sc.at, want)
		}
		if sc.detect != 1 {
			t.Errorf("scan %d detection = %v, want 1", i, sc.detect)
		}
	}
	sw.Stop()
	before := len(scans)
	h.runUntil(t, 10*SensePeriod)
	if len(scans) != before {
		t.Error("scans continued after Stop")
	}
}

func TestSweepScansInAddOrder(t *testing.T) {
	h := newHarness(t, radio.Params{CommRadius: 2})
	model := sensor.NewModel()
	model.SetChannel("x", sensor.ConstantChannel(1))
	var order []int
	var motes []*Mote
	for _, id := range []radio.NodeID{3, 1, 2} {
		m := h.mote(t, id, geom.Pt(float64(id), 0), model, Config{})
		attach("t", func(rd *sensor.Reading) { order = append(order, rd.MoteID()) }, m)
		motes = append(motes, m)
	}
	relay := h.mote(t, 9, geom.Pt(9, 0), nil, Config{})
	h.sweep(append(motes, relay)...)
	h.runUntil(t, 15*SensePeriod/10)
	if len(order) != 3 || order[0] != 3 || order[1] != 1 || order[2] != 2 {
		t.Errorf("scan order = %v, want [3 1 2] (add order, relay skipped)", order)
	}
}

func TestSweepScansTypesInBitOrder(t *testing.T) {
	h := newHarness(t, radio.Params{CommRadius: 2})
	model := sensor.NewModel()
	model.SetChannel("x", sensor.ConstantChannel(1))
	a := h.mote(t, 1, geom.Pt(1, 0), model, Config{})
	b := h.mote(t, 2, geom.Pt(2, 0), model, Config{})
	c := h.mote(t, 3, geom.Pt(3, 0), model, Config{})
	var got []string
	scanner := func(ctxType string) Scanner {
		return scanFunc(func(row int, rd *sensor.Reading) bool {
			got = append(got, fmt.Sprintf("%s@%d/%d", ctxType, rd.MoteID(), row))
			return false
		})
	}
	first, _ := h.hot.CtxMask("first")
	second, _ := h.hot.CtxMask("second")
	_, ia := a.Hot()
	_, ib := b.Hot()
	_, ic := c.Hot()
	h.hot.Attach(ia, first, scanner("first"))
	h.hot.Attach(ia, second, scanner("second"))
	// b gets the types in the opposite order; c carries only one.
	h.hot.Attach(ib, second, scanner("second"))
	h.hot.Attach(ib, first, scanner("first"))
	h.hot.Attach(ic, second, scanner("second"))
	h.sweep(a, b, c)
	h.runUntil(t, 15*SensePeriod/10)
	want := []string{"first@1/0", "second@1/0", "first@2/1", "second@2/1", "second@3/2"}
	if !slices.Equal(got, want) {
		t.Errorf("scans = %v, want %v (add order, then type-bit order)", got, want)
	}
}

func TestSweepRejectsMotesOfAnotherHotState(t *testing.T) {
	h := newHarness(t, radio.Params{CommRadius: 2})
	model := sensor.NewModel()
	a := h.mote(t, 1, geom.Pt(1, 0), model, Config{})
	other := NewEnv(h.rt, h.medium, h.field, Config{}, NewHotState())
	b, err := New(2, geom.Pt(2, 0), model, other)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSweep(a.env)
	sw.Add(a)
	defer func() {
		if recover() == nil {
			t.Error("a sweep accepted a mote of another HotState")
		}
	}()
	sw.Add(b)
}

func TestFailedMoteSkipsScan(t *testing.T) {
	h := newHarness(t, radio.Params{CommRadius: 2})
	model := sensor.NewModel()
	model.SetChannel("x", sensor.ConstantChannel(1))
	m := h.mote(t, 1, geom.Pt(0, 0), model, Config{})
	scans := 0
	attach("t", func(*sensor.Reading) { scans++ }, m)
	h.sweep(m)
	m.Fail()
	h.runUntil(t, 5*SensePeriod)
	if scans != 0 {
		t.Errorf("failed mote scanned %d times", scans)
	}
	m.Restore()
	h.runUntil(t, 75*SensePeriod/10)
	if scans != 2 {
		t.Errorf("restored mote scanned %d times, want 2", scans)
	}
}

func TestSweepOfRelaysArmsNothing(t *testing.T) {
	h := newHarness(t, radio.Params{CommRadius: 2})
	m := h.mote(t, 7, geom.Pt(2, 3), nil, Config{})
	h.sweep(m) // should not panic or schedule a ticker
	if h.sched.Len() != 0 {
		t.Errorf("a sweep of relay motes scheduled %d events", h.sched.Len())
	}
	h.runUntil(t, time.Second)
}

func TestStartIdempotent(t *testing.T) {
	h := newHarness(t, radio.Params{CommRadius: 2})
	model := sensor.NewModel()
	model.SetChannel("x", sensor.ConstantChannel(1))
	m := h.mote(t, 1, geom.Pt(0, 0), model, Config{})
	scans := 0
	attach("t", func(*sensor.Reading) { scans++ }, m)
	sw := h.sweep(m)
	sw.Start()
	h.runUntil(t, 25*SensePeriod/10)
	if scans != 2 {
		t.Errorf("scans = %d, want 2 (double Start must not double-tick)", scans)
	}
}

func TestAccessors(t *testing.T) {
	h := newHarness(t, radio.Params{CommRadius: 2})
	m := h.mote(t, 9, geom.Pt(4, 5), nil, Config{})
	if m.ID() != 9 {
		t.Errorf("ID = %v", m.ID())
	}
	if m.Pos() != geom.Pt(4, 5) {
		t.Errorf("Pos = %v", m.Pos())
	}
	if m.Scheduler() != h.sched {
		t.Error("Scheduler mismatch")
	}
	// A draw is keyed by (seed, mote, count): another mote's draws in
	// between do not move this mote's sequence.
	other := h.mote(t, 10, geom.Pt(5, 5), nil, Config{})
	first := m.Draw()
	other.Draw()
	second := m.Draw()
	for i, got := range []float64{first, second} {
		want := simtime.Draw(1, simtime.DrawMote, 9<<32|uint64(i+1))
		if got != want || got < 0 || got >= 1 {
			t.Errorf("draw %d of mote 9 = %v, want %v in [0, 1)", i+1, got, want)
		}
	}
}
