// Package envirotrack is a Go implementation of EnviroTrack (Abdelzaher et
// al., ICDCS 2004): an object-based distributed middleware for sensor
// networks that raises the level of programming abstraction by attaching
// computation to *tracked entities in the physical environment* rather
// than to individual nodes.
//
// Applications declare context types — an activation condition (the
// sensee() predicate), aggregate state variables with freshness and
// critical-mass QoS, and attached tracking objects. The middleware then
// discovers matching entities in the environment, forms a sensor group
// around each, maintains a persistent context label as the entity moves,
// collects the aggregate state, and runs object methods on the group
// leader.
//
// The package bundles a complete discrete-event sensor-network simulator
// (radio medium with collisions and loss, constrained mote CPUs, moving
// targets) so that tracking applications run on a laptop exactly as they
// would be structured on motes:
//
//	net, _ := envirotrack.New(
//	    envirotrack.WithGrid(10, 10),
//	    envirotrack.WithCommRadius(2.5),
//	    envirotrack.WithSensing(envirotrack.VehicleSensing("vehicle")),
//	)
//	net.AddTarget(&envirotrack.Target{
//	    Name: "tank", Kind: "vehicle",
//	    Traj:            envirotrack.Line{Start: envirotrack.Pt(0, 5), Dir: envirotrack.Vec(1, 0), Speed: 0.1},
//	    SignatureRadius: 1.5,
//	})
//	... attach a context type, run, and receive tracking reports.
//
// See the examples directory for complete programs and DESIGN.md for the
// system architecture.
package envirotrack

import (
	"io"

	"envirotrack/internal/aggregate"
	"envirotrack/internal/chaos"
	"envirotrack/internal/core"
	"envirotrack/internal/directory"
	"envirotrack/internal/geom"
	"envirotrack/internal/group"
	"envirotrack/internal/invariant"
	"envirotrack/internal/obs"
	"envirotrack/internal/phenomena"
	"envirotrack/internal/radio"
	"envirotrack/internal/sensor"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
	"envirotrack/internal/track"
	"envirotrack/internal/transport"
)

// Geometry.
type (
	// Point is a location in the field, in grid units.
	Point = geom.Point
	// Vector is a displacement in the field.
	Vector = geom.Vector
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
)

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// Vec constructs a Vector.
func Vec(dx, dy float64) Vector { return geom.Vec(dx, dy) }

// Environment modeling.
type (
	// Target is a physical entity moving through the field.
	Target = phenomena.Target
	// Trajectory yields a target position over time.
	Trajectory = phenomena.Trajectory
	// Stationary is a trajectory that never moves.
	Stationary = phenomena.Stationary
	// Line moves at constant speed in a fixed direction.
	Line = phenomena.Line
	// Waypoints moves through an ordered point list.
	Waypoints = phenomena.Waypoints
)

// NewWaypoints builds a waypoint trajectory at the given speed (grid units
// per second).
func NewWaypoints(pts []Point, speed float64) (*Waypoints, error) {
	return phenomena.NewWaypoints(pts, speed)
}

// Sensing.
type (
	// Reading is one sample of a mote's local environment.
	Reading = sensor.Reading
	// SenseFunc is a boolean sensing condition (the paper's sensee()).
	SenseFunc = sensor.Func
	// SensorModel is a mote's sensing suite.
	SensorModel = sensor.Model
	// ChannelFunc computes one sensor channel from the environment.
	ChannelFunc = sensor.ChannelFunc
	// SenseRegistry resolves named sensing functions (for the declaration
	// language).
	SenseRegistry = sensor.Registry
)

// NewSensorModel returns an empty sensing suite.
func NewSensorModel() *SensorModel { return sensor.NewModel() }

// NewSenseRegistry returns the library of common sensing functions.
func NewSenseRegistry() *SenseRegistry { return sensor.NewRegistry() }

// VehicleSensing returns the magnetometer preset detecting the given
// target kind; its channels are computed only when read.
func VehicleSensing(kind string) *SensorModel { return sensor.VehicleModel(kind) }

// FireSensing returns the temperature+light preset detecting the given
// target kind over the ambient temperature; its channels are computed only
// when read.
func FireSensing(kind string, ambient float64) *SensorModel { return sensor.FireModel(kind, ambient) }

// DetectionChannel is a 0/1 channel that fires within a target's signature
// radius.
func DetectionChannel(kind string) ChannelFunc { return sensor.DetectionChannel(kind) }

// IntensityChannel is an inverse-cube intensity channel.
func IntensityChannel(kind string, scale float64) ChannelFunc {
	return sensor.IntensityChannel(kind, scale)
}

// ConstantChannel is a fixed ambient value.
func ConstantChannel(v float64) ChannelFunc { return sensor.ConstantChannel(v) }

// Aggregation.
type (
	// AggFunc is a named aggregation function.
	AggFunc = aggregate.Func
	// Value is an aggregation result (scalar or position).
	Value = aggregate.Value
	// AggRegistry resolves named aggregation functions.
	AggRegistry = aggregate.Registry
)

// Builtin aggregation functions.
var (
	Avg              = aggregate.Avg
	Sum              = aggregate.Sum
	Min              = aggregate.Min
	Max              = aggregate.Max
	Count            = aggregate.Count
	Centroid         = aggregate.Centroid
	WeightedCentroid = aggregate.WeightedCentroid
)

// NewAggRegistry returns the builtin aggregation-function registry.
func NewAggRegistry() *AggRegistry { return aggregate.NewRegistry() }

// Programming model.
type (
	// ContextType declares a tracked-entity type: activation condition,
	// aggregate state variables, and attached objects.
	ContextType = core.ContextType
	// AggVar declares one aggregate state variable with its QoS.
	AggVar = core.AggVarSpec
	// Object declares a tracking object.
	Object = core.ObjectSpec
	// Method declares one object method and its invocation.
	Method = core.MethodSpec
	// Ctx is the enclosing-context API available to method bodies.
	Ctx = core.Ctx
	// Trigger tells a method body why it was invoked.
	Trigger = core.Trigger
	// Label is a context label: the persistent logical address of a
	// tracked entity.
	Label = group.Label
	// GroupConfig tunes the group-management protocol per context type.
	GroupConfig = group.Config
	// NodeMessage is a payload delivered to a mote-addressed receiver.
	NodeMessage = core.NodeMessage
	// PortID identifies a method endpoint within a label.
	PortID = transport.PortID
	// Datagram is a transport-layer message between (label, port)
	// endpoints.
	Datagram = transport.Datagram
	// DirectoryEntry is a directory record for an active label.
	DirectoryEntry = directory.Entry
	// NodeID identifies a mote.
	NodeID = radio.NodeID
)

// PositionInput is the distinguished aggregation input meaning the
// reporting mote's position.
const PositionInput = core.PositionInput

// BitRate is the channel capacity in bits per second (the MICA mote
// radio), the rate to pass Stats.LinkUtilization.
const BitRate = radio.BitRate

// Tracking backend names, for ContextType.Backend and WithBackend.
const (
	// BackendLeader is the paper's group-management protocol: heartbeat
	// flooding, leader election, and member reports (the default).
	BackendLeader = track.BackendLeader
	// BackendPassive is the passive-traces protocol: trace deposition,
	// one-hop gossip, and a local estimator — no leaders, no heartbeats.
	BackendPassive = track.BackendPassive
)

// TrackingBackends returns the tracking backend names, sorted.
func TrackingBackends() []string { return track.Names() }

// Trigger kinds.
const (
	TriggerTimer     = core.TriggerTimer
	TriggerCondition = core.TriggerCondition
	TriggerMessage   = core.TriggerMessage
)

// Statistics.
type (
	// Stats is the radio/message accounting of a run.
	Stats = trace.Stats
	// Ledger is the context-label coherence monitor.
	Ledger = trace.Ledger
	// HandoverSummary summarizes label handovers for one context type.
	HandoverSummary = trace.HandoverSummary
	// Trajectory records actual-vs-reported target tracks.
	TrackLog = trace.Trajectory
)

// Observability. (The name Event is taken by the session API, so the
// structured trace record is exported as TraceEvent.)
type (
	// EventBus fans structured protocol events out to sinks; attach one
	// with WithEventBus.
	EventBus = obs.Bus
	// EventSink consumes structured events.
	EventSink = obs.Sink
	// TraceEvent is one structured protocol observation.
	TraceEvent = obs.Event
	// TraceEventType classifies a TraceEvent.
	TraceEventType = obs.EventType
	// MetricsRegistry holds counters, gauges, and histograms with
	// Prometheus text-format and expvar exposition.
	MetricsRegistry = obs.Registry
	// Series is a columnar sim-time series produced by StartSeries.
	Series = obs.Series
	// SeriesProbe adds a custom column to StartSeries.
	SeriesProbe = obs.Probe
	// JSONLSink streams events as JSON lines.
	JSONLSink = obs.JSONLSink
	// RingSink retains the last N events for post-mortem dumps.
	RingSink = obs.RingSink
	// CounterSink tallies events by type.
	CounterSink = obs.CounterSink
	// MetricsSink derives handover-latency and leader-tenure histograms
	// (and per-type event counts) from the event stream.
	MetricsSink = obs.MetricsSink
)

// NewEventBus builds an event bus over the given sinks; pass it to a
// network via WithEventBus. A bus with no sinks is inactive and free.
func NewEventBus(sinks ...EventSink) *EventBus { return obs.NewBus(sinks...) }

// NewJSONLSink streams events to w as JSON lines; call Flush when done.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONLSink(w) }

// NewRingSink retains the last capacity events.
func NewRingSink(capacity int) *RingSink { return obs.NewRingSink(capacity) }

// NewCounterSink tallies events by type.
func NewCounterSink() *CounterSink { return obs.NewCounterSink() }

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewMetricsSink registers protocol metrics on reg and returns the sink
// feeding them.
func NewMetricsSink(reg *MetricsRegistry) *MetricsSink { return obs.NewMetricsSink(reg) }

// Causal span assembly.
type (
	// SpanSink is an EventSink assembling end-to-end report spans (per-hop
	// waterfalls with delivery latency or an attributed drop root cause)
	// and leadership-handover spans from the event stream. It works both
	// live on a bus and offline over a parsed JSONL trace (cmd/ettrace).
	SpanSink = obs.SpanSink
	// ReportSpan is the assembled life of one correlated message.
	ReportSpan = obs.ReportSpan
	// SpanHop is one radio transmission within a report span.
	SpanHop = obs.Hop
	// HandoverSpan is one leadership takeover with its causal chain.
	HandoverSpan = obs.HandoverSpan
	// SpanEvent is one entry of a handover span's causal chain.
	SpanEvent = obs.SpanEvent
)

// NewSpanSink returns an empty span assembler.
func NewSpanSink() *SpanSink { return obs.NewSpanSink() }

// ParseTraceEvent decodes one JSONL trace line (as written by a JSONLSink)
// back into a TraceEvent.
func ParseTraceEvent(line []byte) (TraceEvent, error) { return obs.ParseEvent(line) }

// RegisterRuntimeGauges adds Go runtime health gauges (goroutines, heap
// bytes, p99 GC pause, p99 scheduler latency) to the registry; they
// refresh at scrape time.
func RegisterRuntimeGauges(reg *MetricsRegistry) { obs.RegisterRuntimeGauges(reg) }

// Scheduler self-profiling.
type (
	// SelfProfile accumulates per-subsystem event counts and wall time for
	// every simulation event the scheduler dispatches; attach one with
	// WithSelfProfile. One profile may be shared by several networks (the
	// counters are atomic), aggregating a parallel sweep.
	SelfProfile = simtime.Profile
	// SubsystemStat is one row of a SelfProfile snapshot.
	SubsystemStat = simtime.OwnerStat
)

// NewSelfProfile builds an empty scheduler self-profile.
func NewSelfProfile() *SelfProfile { return simtime.NewProfile() }

// ExportSelfProfile publishes a profile snapshot into a metrics registry
// as envirotrack_sched_events_total, envirotrack_sched_heap_pushes_total
// and envirotrack_sched_wall_nanos_total, labeled by subsystem. It is
// idempotent: repeated calls advance the (monotonic) counters to the
// latest snapshot.
func ExportSelfProfile(reg *MetricsRegistry, p *SelfProfile) {
	events := reg.CounterVec("envirotrack_sched_events_total",
		"Simulation events dispatched, by owning subsystem.", "subsystem")
	pushes := reg.CounterVec("envirotrack_sched_heap_pushes_total",
		"Scheduler heap entries pushed, by owning subsystem; events that join a same-instant run share one.", "subsystem")
	wall := reg.CounterVec("envirotrack_sched_wall_nanos_total",
		"Wall-clock nanoseconds spent in simulation event callbacks, by owning subsystem.", "subsystem")
	advance := func(vec *obs.CounterVec, name string, v uint64) {
		if c := vec.With(name); v > c.Value() {
			c.Add(v - c.Value())
		}
	}
	for _, st := range p.Snapshot() {
		if st.Events == 0 && st.Pushes == 0 && st.WallNanos == 0 {
			continue
		}
		advance(events, st.Name, st.Events)
		advance(pushes, st.Name, st.Pushes)
		advance(wall, st.Name, uint64(st.WallNanos))
	}
}

// Fault injection and invariant checking.
type (
	// ChaosSchedule is a declarative fault plan (node crashes, loss steps
	// and ramps, partitions, message duplication) replayed
	// deterministically on the virtual clock; install one with
	// Network.InjectFaults.
	ChaosSchedule = chaos.Schedule
	// InvariantChecker is an EventSink that checks protocol safety
	// invariants (single leader per label, takeover silence, teardown
	// quiescence, directory consistency, report cadence) over a run's
	// event stream.
	InvariantChecker = invariant.Checker
	// InvariantConfig parameterizes an InvariantChecker with the run's
	// protocol timing.
	InvariantConfig = invariant.Config
	// InvariantViolation is one proven invariant breach.
	InvariantViolation = invariant.Violation
	// InvariantPartition tells an InvariantChecker about a scheduled
	// network partition so split-brain leadership during it is exempt.
	InvariantPartition = invariant.PartitionWindow
)

// ParseChaosSchedule parses the textual chaos spec format, e.g.
// "crash:node=17,at=10s,for=5s;loss:at=20s,for=10s,p=0.5".
func ParseChaosSchedule(spec string) (ChaosSchedule, error) { return chaos.ParseSchedule(spec) }

// NewInvariantChecker builds an invariant checker for one run; attach it
// to the run's event bus and inspect Violations() afterwards.
func NewInvariantChecker(cfg InvariantConfig) *InvariantChecker { return invariant.New(cfg) }
