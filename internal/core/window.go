// Package core implements the Executor (paper Section III-B1): responsive
// backtracking analysis built on the execution-window partitioning
// algorithm.
//
// Instead of searching the whole log history for the dependencies of each
// event — which blocks the analysis for minutes on heavy-hitter objects —
// the executor cuts each event's backward search range into k windows whose
// lengths form a geometric sequence with common ratio 2, smallest window
// nearest the event. Windows go onto a priority queue that explores
// (a) nodes matching a longer prefix of the tracking statement first
// (maintainer states), (b) prioritize-rule boosted paths next, and
// (c) temporally closer windows first, exploiting the temporal locality of
// system events. Each window is one bounded database query, so dependency-
// graph updates stream out at a steady cadence (Table II in the paper).
package core

import "aptrace/internal/event"

// MaxWindows is the largest accepted window count k. The geometric sequence
// needs 2^k - 1 to fit in an int64, so k is clamped at 62 (the span of any
// real second-granularity log is far below 2^62 anyway — the clamp only
// guards the arithmetic).
const MaxWindows = 62

// ExecWindow is the unit of search: look for backward dependencies of Obj
// (the source object of the generating event) in the half-open time range
// [Begin, Finish). It is 48 bytes and holds no copy of an event: the queue
// moves windows around on every push and pop.
type ExecWindow struct {
	Begin  int64
	Finish int64
	Gen    event.EventID // the event that generated this window
	seq    int64         // FIFO tiebreaker
	Obj    event.ObjID   // object whose dependencies this window searches
	Slot   int32         // Obj's node slot in the run's graph

	// Card is the cardinality estimate taken when the window was enqueued
	// (the same index-only count that pruned empty windows), carried so the
	// re-split check does not have to count the identical range again.
	// Zero means unknown — the halves of a re-split window recount at pop.
	Card int32

	// Scheduling attributes.
	State int16 // maintainer state of Obj at enqueue time (-1 if none)
	Boost int8  // prioritize-rule boost (0 or 1)
}

// appendExeWindows implements genExeWindow from Algorithm 1: it cuts the
// monolithic window [ts, te) behind the generating event (te = its time) into
// k pieces whose lengths are sigma, 2*sigma, 4*sigma, ... from te backwards,
// where sigma = (te-ts)/(2^k - 1), and appends them to buf nearest-first.
// Each window is w — the object, its slot, the generating event and the
// scheduling attributes — with its piece of [ts, te); buf is the executor's,
// reused across every enqueue of a run.
//
// Degenerate spans (te-ts < 2^k - 1 seconds) produce fewer, second-sized
// windows; an empty span produces none. Integer remainders are absorbed by
// the farthest window so the union exactly covers [ts, te).
func appendExeWindows(buf []ExecWindow, w ExecWindow, ts, te int64, k int) []ExecWindow {
	if te <= ts || k < 1 {
		return buf
	}
	if k > MaxWindows {
		k = MaxWindows // 1<<63 overflows int64
	}
	span := te - ts
	// sigma = span / (2^k - 1), clamped so the nearest window is at least
	// one second wide.
	denom := int64(1)<<uint(k) - 1
	sigma := span / denom
	if sigma < 1 {
		sigma = 1
	}
	w.Finish = te
	width := sigma
	for i := 0; i < k && w.Finish > ts; i++ {
		w.Begin = w.Finish - width
		if i == k-1 || w.Begin < ts {
			w.Begin = ts
		}
		buf = append(buf, w)
		w.Finish = w.Begin
		width *= 2
	}
	return buf
}

// appendExeWindowsForward mirrors appendExeWindows for impact tracking: it
// cuts the forward range [ts, tEnd) into k geometric pieces, the smallest
// window immediately after the event, and appends them to buf. The explored
// object is the event's flow destination, and ts is the event's time plus
// one: forward dependencies must be strictly later.
func appendExeWindowsForward(buf []ExecWindow, w ExecWindow, ts, tEnd int64, k int) []ExecWindow {
	if tEnd <= ts || k < 1 {
		return buf
	}
	if k > MaxWindows {
		k = MaxWindows // 1<<63 overflows int64
	}
	span := tEnd - ts
	denom := int64(1)<<uint(k) - 1
	sigma := span / denom
	if sigma < 1 {
		sigma = 1
	}
	w.Begin = ts
	width := sigma
	for i := 0; i < k && w.Begin < tEnd; i++ {
		w.Finish = w.Begin + width
		if i == k-1 || w.Finish > tEnd {
			w.Finish = tEnd
		}
		buf = append(buf, w)
		w.Begin = w.Finish
		width *= 2
	}
	return buf
}

// windowHeap is a priority queue over execution windows: a binary heap typed
// to ExecWindow, so a push or pop boxes nothing and compares through
// pointers. Ordering:
//
//  1. higher maintainer state first (explore the declared chain),
//  2. higher boost first (prioritize rules),
//  3. later Finish first (temporal locality: windows closest to the
//     starting point's time, per Algorithm 1's queue discipline),
//  4. FIFO among equals.
//
// seq is unique per push, so the order is total and the pop sequence does not
// depend on how the heap arranges its array.
type windowHeap struct {
	items []ExecWindow
	next  int64
	// fifo degrades the ordering to pure insertion order (ablation A2).
	fifo bool
	// forward flips the temporal preference: windows with the earliest
	// Begin first (closest after the starting point).
	forward bool
}

func (h *windowHeap) Len() int { return len(h.items) }

func (h *windowHeap) less(a, b *ExecWindow) bool {
	if h.fifo {
		return a.seq < b.seq
	}
	if a.State != b.State {
		return a.State > b.State
	}
	if a.Boost != b.Boost {
		return a.Boost > b.Boost
	}
	if h.forward {
		if a.Begin != b.Begin {
			return a.Begin < b.Begin
		}
	} else if a.Finish != b.Finish {
		return a.Finish > b.Finish
	}
	return a.seq < b.seq
}

// push stamps w with its sequence number and sifts a hole up from the new
// leaf: each level moves one window down into the hole, and w is written once
// where the hole stops.
func (h *windowHeap) push(w *ExecWindow) {
	w.seq = h.next
	h.next++
	h.items = append(h.items, *w)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(w, &h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = *w
}

// pop removes the first window in order, sifting the hole it leaves down to
// where the former last leaf belongs.
func (h *windowHeap) pop() (ExecWindow, bool) {
	n := len(h.items) - 1
	if n < 0 {
		return ExecWindow{}, false
	}
	top, last := h.items[0], h.items[n]
	h.items = h.items[:n]
	if n == 0 {
		return top, true
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.less(&h.items[r], &h.items[child]) {
			child = r
		}
		if !h.less(&h.items[child], &last) {
			break
		}
		h.items[i] = h.items[child]
		i = child
	}
	h.items[i] = last
	return top, true
}
