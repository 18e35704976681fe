package main

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"time"
)

// quantile returns the p-quantile (0 < p < 1) of xs by the "exclusive"
// method of Python's statistics.quantiles: the position p·(n+1) in the
// sorted values, interpolated between its neighbours, with the pair
// clamped to the first or last two values (so extreme p extrapolate, as
// Python does). Quartiles computed here therefore match the ones a
// reviewer gets from statistics.quantiles(values, n=4).
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(n+1)
	j := int(math.Floor(pos))
	j = min(max(j, 1), n-1)
	return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqr returns the first and third quartiles of xs.
func iqr(xs []float64) (q1, q3 float64) { return quantile(xs, 0.25), quantile(xs, 0.75) }

// The host reference. On a shared host the simulator's speed swings by up
// to 2x between seconds-long phases, so every wall metric is rescaled by a
// reference reading taken around the sample it belongs to. The reference
// is the geometric mean of two frozen kernels: a pointer chase (memory
// latency past the private caches) and a miniature event loop (branchy
// heap and map work with small allocations, the simulator's own
// instruction mix). On the calibration host it held the spread of
// sim_s_per_wall_s between 20 s runs to 3-7% while the raw rate's ranged
// up to 19%; either kernel alone, an arithmetic loop, or a chase that fits
// in the L2 did worse. Neither kernel may change once results have been recorded: every
// stored wall metric depends on them.

// nominalRefMs is the reference's typical reading on the calibration host
// (a 2-vCPU Intel Xeon VM with 2 MiB of L2 per core, Go 1.24). Wall metrics
// are rescaled to what they would read had the reference read exactly
// this.
const nominalRefMs = 15.0

// normTime rescales a wall time measured in a sample whose reference read
// refMs.
func normTime(raw, refMs float64) float64 { return raw * nominalRefMs / refMs }

// normRate rescales a per-wall-second rate measured in a sample whose
// reference read refMs.
func normRate(raw, refMs float64) float64 { return raw * refMs / nominalRefMs }

// hostReading is one reading of both kernels, in milliseconds.
type hostReading struct{ chase, loop float64 }

func readHost() hostReading { return hostReading{chase: chaseMs(), loop: loopMs()} }

// hostMeter brackets samples with host readings: a sample's reference
// combines the reading taken just before it with the one just after, and
// consecutive samples share the reading between them.
type hostMeter struct{ last hostReading }

func newHostMeter() *hostMeter { return &hostMeter{last: readHost()} }

// next reads the host after a sample and returns the sample's reference:
// the geometric mean of the two kernels, each averaged over the bracket.
func (m *hostMeter) next() float64 {
	r := readHost()
	chase, loop := (m.last.chase+r.chase)/2, (m.last.loop+r.loop)/2
	m.last = r
	return math.Sqrt(chase * loop)
}

// chase is the pointer chase's working set: 8 MiB of uint32 successor
// indices forming one random cycle (Sattolo's algorithm), so every load
// depends on the previous one and almost every load misses a core's 2 MiB
// L2.
var chase = func() []uint32 {
	const n = 8 << 20 / 4
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return next
}()

// kernelSink keeps the kernels from being optimised away.
var kernelSink int

// chaseMs walks 2^18 links of the chase cycle.
func chaseMs() float64 {
	start := time.Now()
	i := uint32(0)
	for range 1 << 18 {
		i = chase[i]
	}
	kernelSink = int(i)
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// loopMs runs a miniature discrete-event loop: 1000 pending events over
// 500 nodes in a binary heap; each of 30000 steps pops the earliest,
// updates its node's entry in a map, and schedules a successor carrying a
// small payload.
func loopMs() float64 {
	start := time.Now()
	rng := rand.New(rand.NewSource(7))
	h := &loopHeap{}
	state := make(map[int]int, 512)
	for i := 0; i < 1000; i++ {
		heap.Push(h, &loopEvent{at: rng.Int63n(1e6), node: i % 500})
	}
	sum := 0
	for k := 0; k < 30000; k++ {
		e := heap.Pop(h).(*loopEvent)
		state[e.node] += len(e.data) + 1
		sum += state[(e.node*7)%500]
		heap.Push(h, &loopEvent{
			at:   e.at + 1 + rng.Int63n(1000),
			node: (e.node + rng.Intn(20)) % 500,
			data: make([]byte, 16+k%32),
		})
	}
	kernelSink = sum
	return float64(time.Since(start)) / float64(time.Millisecond)
}

type loopEvent struct {
	at   int64
	node int
	data []byte
}

type loopHeap []*loopEvent

func (h loopHeap) Len() int           { return len(h) }
func (h loopHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h loopHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *loopHeap) Push(x any)        { *h = append(*h, x.(*loopEvent)) }
func (h *loopHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
