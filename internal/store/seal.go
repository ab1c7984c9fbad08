package store

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"aptrace/internal/event"
)

// sealParallelCutoff is the event count below which an auto-configured Seal
// stays serial: goroutine fan-out costs more than it saves on small logs.
const sealParallelCutoff = 1 << 14

// Seal sorts every part's event log by time (ties keep their ingestion
// order), builds the struct-of-arrays posting indexes, the global time-order
// directory and the event-ID index, and enables queries. The result is
// identical for any worker count and any GOMAXPROCS. Sealing an
// already-sealed store is an error.
//
// Seal is extend from nothing, with the store as its own write side: the
// same routine a live store reseals with (see Live.Snapshot).
func (s *Store) Seal() error {
	if s.sealed {
		return ErrSealed
	}
	s.extend(nil, s)
	return nil
}

// extend seals s as prev (nil: an empty store) plus the events the write side
// w holds beyond it, and is the only sealing routine. w's parts must extend
// prev's — the same layout, prev's events a prefix of each log — and s must
// already hold w's object table.
//
// Only what prev lacks costs work. Each part's log is brought into (time,
// arrival) order by sorting just the suffix its late arrivals disturb (see
// tidy) and is then aliased, not copied. When nothing prev holds moved, the
// tail's posting entries are written into the slots reserved behind each
// list in prev's arena (see place); otherwise each list is prev's, as far as
// the sort left it in place, and the rest of the log's, in a fresh tight
// arena. The directory and the dense ID index keep prev's leading entries,
// in prev's own array when nothing prev holds moved. Every list is the one
// sealing all of w's events from nothing builds, and no byte prev (or any
// store sealed before it) reads is ever rewritten.
func (s *Store) extend(prev, w *Store) {
	start := time.Now()
	k := len(w.parts)
	var prevParts []*part
	var prevDir, prevIDPos []uint64
	prevTotal, dense := 0, true
	if prev != nil {
		prevParts, prevDir, prevIDPos = prev.parts, prev.dir, prev.idPos
		prevTotal, dense = prev.total, prev.byID == nil
	} else {
		prevParts = make([]*part, k)
		for i := range prevParts {
			prevParts[i] = &part{byDst: &postings{}, bySrc: &postings{}}
		}
	}

	workers := s.sealWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if w.total-prevTotal < sealParallelCutoff {
			workers = 1
		}
	}
	workers = max(min(workers, w.total-prevTotal), 1)

	// Parts seal side by side: part-level concurrency is min(parts,
	// GOMAXPROCS), and the workers split across the parts drive each part's
	// own posting build. Any combination produces bit-identical parts.
	conc := min(k, runtime.GOMAXPROCS(0))
	inner := max(workers/k, 1)
	keep := make([]int, k)      // per part: leading positions prev's indexes still describe
	tailMin := make([]int64, k) // per part: earliest time among the events prev lacks
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for i, wp := range w.parts {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			sp, pp := s.parts[i], prevParts[i]
			m := len(pp.events)
			tailMin[i] = math.MaxInt64
			for _, e := range wp.events[m:] {
				tailMin[i] = min(tailMin[i], e.Time)
			}
			// A store sealing itself has no reader yet, so a log it has to
			// sort anyway moves to an exact-size array, as if all published.
			published := m
			if sp == wp {
				published = len(wp.events)
			}
			keep[i] = min(wp.tidy(published), m)

			n := len(wp.events)
			sp.events = wp.events[:n:n]
			if wp.seq != nil {
				sp.seq = wp.seq[:n:n]
			}
			if n > 0 {
				sp.minTime, sp.maxTime = sp.events[0].Time, sp.events[n-1].Time
			}
			sp.byDst, sp.bySrc = buildPostings(pp, wp, keep[i], sp.events, len(s.objects), inner)
			<-sem
		}()
	}
	wg.Wait()

	s.total = w.total
	// The directory keeps prev's entries up to the earliest new event: every
	// prev event at or before it kept its place in its part.
	first := slices.Min(tailMin)
	starts := make([]int, k)
	kept := 0
	for i, pp := range prevParts {
		starts[i] = sort.Search(len(pp.events), func(j int) bool { return pp.events[j].Time > first })
		kept += starts[i]
	}
	s.dir = grow(prevDir, kept, s.total, true)
	s.buildDirectory(s.dir[kept:], starts)

	moved := false
	for i, pp := range prevParts {
		moved = moved || keep[i] < len(pp.events)
	}
	s.buildIDIndex(prevIDPos, prevTotal, keep, dense, !moved)

	if s.total > 0 {
		s.minTime = s.at(s.dir[0]).Time
		s.maxTime = s.at(s.dir[s.total-1]).Time
	}
	s.stats.Events = s.total
	s.stats.Objects = len(s.objects)
	s.sealed = true
	s.sealWall = time.Since(start)
	s.tel.sealWall.Set(int64(s.sealWall))
}

// tidy brings the part's log into (time, arrival) order and returns the
// first position whose event moved (the log's length when none did). Only
// the suffix from the first sorted event later than the earliest late
// arrival is reordered, so an in-order log is never touched. The suffix is
// ahead of the arrivals behind it and those are in arrival order, so a sort
// stable on time (timeOrder) is a (time, arrival) sort. The first published
// events are aliased by a sealed store and are never rewritten: a sort that
// reaches below them moves the log to a fresh array.
func (p *part) tidy(published int) int {
	n := len(p.events)
	if p.inOrder == n {
		return n
	}
	ev := p.events
	late := ev[p.inOrder].Time
	for _, e := range ev[p.inOrder+1:] {
		late = min(late, e.Time)
	}
	j := sort.Search(p.inOrder, func(i int) bool { return ev[i].Time > late })
	ord := timeOrder(ev[j:])
	fresh := j < published
	p.events = permute(p.events, j, ord, fresh)
	if p.seq != nil {
		p.seq = permute(p.seq, j, ord, fresh)
	}
	p.inOrder = n
	return j
}

// timeOrder returns the permutation that sorts a non-empty log by time,
// stably: ord[i] is the position of the i-th event in (time, position)
// order. It is an LSD radix sort of each time's offset from the earliest,
// uint64(t) - uint64(min), which keeps int64 order for any span, in 11-bit
// digits: one counting pass per digit, skipping a digit that is the same
// for every key, so its cost is linear in the log's length.
func timeOrder(tail []event.Event) []int32 {
	const digit, mask = 11, 1<<11 - 1
	n, lo, hi := len(tail), tail[0].Time, tail[0].Time
	for _, e := range tail[1:] {
		lo, hi = min(lo, e.Time), max(hi, e.Time)
	}
	counts := make([][1 << digit]int32, (bits.Len64(uint64(hi)-uint64(lo))+digit-1)/digit)
	keys, ord := make([]uint64, 2*n), make([]int32, 2*n) // two halves: a pass reads one, writes the other
	for i, e := range tail {
		keys[i], ord[i] = uint64(e.Time)-uint64(lo), int32(i)
		for d := range counts {
			counts[d][keys[i]>>(d*digit)&mask]++
		}
	}
	src, dst := 0, n
	for d := range counts {
		c, shift := &counts[d], d*digit
		if c[keys[src]>>shift&mask] == int32(n) {
			continue
		}
		var sum int32
		for b, v := range c {
			c[b], sum = sum, sum+v
		}
		dk, do := keys[dst:dst+n], ord[dst:dst+n]
		for i, k := range keys[src : src+n] {
			b := k >> shift & mask
			dk[c[b]], do[c[b]] = k, ord[src+i]
			c[b]++
		}
		src, dst = dst, src
	}
	return ord[src : src+n]
}

// permute reorders col[j:] by ord (col[j+i] becomes the old col[j+ord[i]]),
// in place or, when fresh is set, into a new exact-size array that copies
// col[:j].
func permute[T any](col []T, j int, ord []int32, fresh bool) []T {
	tail := col[j:]
	if fresh {
		col = append(make([]T, 0, len(col)), col[:j]...)[:len(col)]
	} else {
		tail = slices.Clone(tail)
	}
	for i, o := range ord {
		col[j+i] = tail[o]
	}
	return col
}

// grow returns prev[:keep] extended with zeroed slots to length n. It
// appends in prev's own array only when shared is set and keep is all of
// prev: the slots past len(prev) are read by no sealed store. Otherwise the
// result is a fresh array, so no byte prev reads is ever rewritten.
func grow[T any](prev []T, keep, n int, shared bool) []T {
	if !shared || keep < len(prev) {
		prev = prev[:keep:keep]
	}
	out := slices.Grow(prev, n-keep)[:n]
	clear(out[keep:])
	return out
}

// growth is the posting arena's reserve factor (see place).
const growth = 2

// buildPostings constructs the byDst and bySrc indexes over a time-sorted
// event log, given the part prev whose first keep events are this log's and
// the write side's part wp, which keeps the reservations. Each object's list
// is prev's entries below keep followed by those of events[keep:]: workers
// count endpoint occurrences per contiguous chunk, a serial pass places the
// lists (see place) and turns the counts into disjoint write cursors, and
// workers then fill their slots in event-log order. Chunk c's slots for an
// object precede chunk c+1's, so every list is identical for any worker
// count and any prefix it was extended from.
func buildPostings(prev, wp *part, keep int, events []event.Event, numObjects, workers int) (byDst, bySrc *postings) {
	tail := events[keep:]
	workers = max(min(workers, len(tail)), 1)
	bounds := make([]int, workers+1) // chunk w is tail[bounds[w]:bounds[w+1]]
	for w := range bounds {
		bounds[w] = w * len(tail) / workers
	}

	dstCounts := make([][]int32, workers)
	srcCounts := make([][]int32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dc, sc := make([]int32, numObjects), make([]int32, numObjects)
			for _, e := range tail[bounds[w]:bounds[w+1]] {
				dc[e.Dst()]++
				sc[e.Src()]++
			}
			dstCounts[w], srcCounts[w] = dc, sc
		}()
	}
	wg.Wait()

	appending := keep > 0 && keep == len(prev.events) && growth*growth*len(events) <= math.MaxInt32
	byDst = place(prev.byDst, &wp.ends[0], keep, dstCounts, len(events), appending)
	bySrc = place(prev.bySrc, &wp.ends[1], keep, srcCounts, len(events), appending)

	// Parallel fill: each chunk advances its private cursors, so writes land
	// in disjoint slots and per-object order follows event-log order.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dcur, scur := dstCounts[w], srcCounts[w]
			for i := keep + bounds[w]; i < keep+bounds[w+1]; i++ {
				e := &events[i]
				p := dcur[e.Dst()]
				byDst.idx[p], byDst.times[p] = int32(i), e.Time
				dcur[e.Dst()] = p + 1
				p = scur[e.Src()]
				bySrc.idx[p], bySrc.times[p] = int32(i), e.Time
				scur[e.Src()] = p + 1
			}
		}()
	}
	wg.Wait()
	return byDst, bySrc
}

// place lays out one index of n entries: prev's lists below keep and room
// behind each for the tail's per-chunk counts, which become the chunks' write
// cursors. Appending (prev keeps every event; a compacted arena fits int32
// positions), the index shares prev's arena: a list whose reserved slots hold
// its tail stays, the others move to the arena's end reserving growth times
// their length, and a full arena has every list move so into a fresh one,
// growth times what they take; *ends, the write side's bookkeeping, records
// where each reservation ends. Else it is fresh and tight, as Seal lays it.
func place(prev *postings, ends *[]int32, keep int, counts [][]int32, n int, appending bool) *postings {
	p := &postings{span: make([]span, len(counts[0])), idx: prev.idx, times: prev.times}
	if appending {
		*ends, n = grow(*ends, len(*ends), len(p.span), true), growth*growth*n
	} else {
		*ends = nil
	}
	if !appending || !p.lay(prev, keep, counts, *ends, true) {
		p.idx, p.times = make([]int32, 0, n), make([]int64, 0, n)
		p.lay(prev, keep, counts, *ends, false)
	}
	for obj := range p.span {
		pos := p.span[obj].hi
		for _, c := range counts {
			pos, c[obj] = pos+c[obj], pos
		}
		p.span[obj].hi = pos
	}
	return p
}

// lay places every object's list in p's arena, with its entries from prev
// below keep, and leaves its span's hi at their end. With stay set the arena
// is prev's and a list whose tail fits its reserved slots (up to ends)
// stays. Any other moves to the arena's end: tight without ends, else
// reserving growth times its new length. lay reports false when the arena
// is full; what it wrote by then lies outside every span.
func (p *postings) lay(prev *postings, keep int, counts [][]int32, ends []int32, stay bool) bool {
	for obj := range p.span {
		var lo, hi, add int32
		if obj < len(prev.span) {
			lo, hi = prev.span[obj].lo, prev.span[obj].hi
		}
		for _, c := range counts {
			add += c[obj]
		}
		if stay && hi+add <= ends[obj] {
			p.span[obj] = span{lo, hi}
			continue
		}
		kept := hi - lo
		if kept > 0 && int(prev.idx[hi-1]) >= keep {
			kept = int32(sort.Search(int(kept), func(i int) bool { return int(prev.idx[lo+int32(i)]) >= keep }))
		}
		end, size := len(p.idx), int(kept+add)
		if ends != nil {
			size *= growth
			ends[obj] = int32(end + size)
		}
		if end+size > cap(p.idx) {
			return false
		}
		p.idx = append(p.idx, prev.idx[lo:lo+kept]...)[:end+size]
		p.times = append(p.times, prev.times[lo:lo+kept]...)[:end+size]
		p.span[obj] = span{int32(end), int32(end) + kept}
	}
	return true
}
