package store

import "aptrace/internal/event"

// postings is a struct-of-arrays posting index. For each object o,
// idx[span[o].lo:span[o].hi] holds the positions (into the time-sorted event
// log) of the events whose data-flow endpoint is o, in ascending time order,
// and times over the same bounds their timestamps: window binary searches
// probe that contiguous column, not the event log. Seal lays the lists out
// tight; a live reseal writes the tail's entries into the arena of the
// snapshot it extends (see place), so the snapshots between two compactions
// share one idx/times pair, and none reads a slot a later one writes.
type postings struct {
	span  []span  // per object, len NumObjects() at seal time; lo beside hi, one cache line per lookup
	idx   []int32 // event-log positions, one time-sorted run per object
	times []int64 // times[i] == events[idx[i]].Time
}

// span bounds one object's list in its index's arena.
type span struct{ lo, hi int32 }

// count returns the posting-list length for obj without touching idx/times.
func (p *postings) count(obj event.ObjID) int {
	if p == nil || uint(obj) >= uint(len(p.span)) {
		return 0
	}
	return int(p.span[obj].hi - p.span[obj].lo)
}

// searchTimes returns the smallest i with times[i] >= t. It is a hand-rolled
// branch-light binary search over the contiguous time column: no closure, no
// event-log dereference per probe.
func searchTimes(times []int64, t int64) int {
	lo, hi := 0, len(times)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if times[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
