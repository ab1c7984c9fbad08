package store

import "aptrace/internal/event"

// postings is a struct-of-arrays posting index in compressed-sparse-row
// layout, built once at Seal and shared immutably by every View.
//
// For each object o, idx[off[o]:off[o+1]] holds the positions (into the
// time-sorted event log) of the events whose data-flow endpoint is o, in
// ascending time order, and times[off[o]:off[o+1]] is the parallel column of
// their timestamps. Window binary searches probe the contiguous times column
// directly instead of dereferencing the event log per probe, which is what
// makes the window search cache-friendly.
type postings struct {
	off   []int32 // len NumObjects()+1 at seal time; prefix sums into idx/times
	idx   []int32 // event-log positions, grouped by object, time-sorted
	times []int64 // times[i] == events[idx[i]].Time
}

// list returns the posting list and its parallel time column for obj. Objects
// interned after Seal (or never seen as this endpoint) have an empty list.
func (p *postings) list(obj event.ObjID) (idx []int32, times []int64) {
	if p == nil || obj < 0 || int(obj)+1 >= len(p.off) {
		return nil, nil
	}
	lo, hi := p.off[obj], p.off[obj+1]
	return p.idx[lo:hi], p.times[lo:hi]
}

// count returns the posting-list length for obj without touching idx/times.
func (p *postings) count(obj event.ObjID) int {
	if p == nil || obj < 0 || int(obj)+1 >= len(p.off) {
		return 0
	}
	return int(p.off[obj+1] - p.off[obj])
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
