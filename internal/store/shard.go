package store

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/qprof"
)

// Parts: the sealed store is a list of parts, partitioned by host × time
// epoch — the layout the paper's deployment uses for its 256-host, 13 TB
// PostgreSQL substrate (time-partitioned tables, one collection pipeline per
// host group).
//
// A part is the whole engine over its slice of the history: a contiguous
// time-sorted event log and the SoA posting indexes over it. The store
//
//   - assigns every ingested event to a part by (subject host, time epoch),
//   - seals the parts side by side,
//   - answers a query by collecting, from every part whose time extent meets
//     the window, the run of posting entries inside it, and
//   - charges the cost model exactly once per logical query, for the rows and
//     buckets of the window — never per part.
//
// There is one implementation of every verb and its only dependence on the
// part count is data: how many runs a probe collected. One run is already in
// global order, so it is copied (or walked) in place with no merge, no
// scatter and no timing; that is all a store with one part ever executes.
// Several runs are k-way merged by (time, arrival sequence): every event of a
// multi-part store carries its global ingestion index in a per-part seq
// column, so ties between parts resolve exactly as one part's stable sort
// resolves them.
//
// The load-bearing invariant is that the part count changes real CPU only:
// simulated cost, Stats deltas, telemetry counters, experiment stdout, and
// DOT graphs are byte-identical for any WithShards(n) and any GOMAXPROCS.

// MaxShards bounds the part count: a probe's run scratch is a fixed array on
// the caller's stack and merge fan-in stays small. 64 already exceeds any
// core count this embedded store targets.
const MaxShards = 64

// shardScatterCutoff is the per-query row total below which the runs of an
// attribute walk or a match scan are walked inline without timing: goroutine
// fan-out and clock reads cost more than they could save on a window-sized
// probe.
const shardScatterCutoff = 2048

// part is one partition of the store: the whole engine over its events.
type part struct {
	events []event.Event       // time-sorted after Seal, aliased by later snapshots
	seq    []uint32            // global arrival index per event; kept only when the store has several parts
	byDst  *postings           // SoA index over events with Dst()==obj, time-sorted
	bySrc  *postings           // SoA index over events with Src()==obj, time-sorted
	hosts  map[string]struct{} // subject hosts routed here; kept like seq

	// ends is the write side's reservation bookkeeping: per endpoint index
	// (dst, src), where each object's reserved slots end in the arena of the
	// last snapshot's postings (nil: its lists are tight). See place.
	ends [2][]int32

	// inOrder is how long the log has stayed in (time, arrival) order: the
	// events past it arrived out of order and wait for the next seal to
	// sort them (see tidy).
	inOrder int

	minTime, maxTime int64
}

// scatterStats is the cumulative accounting of timed scatters.
type scatterStats struct {
	scatters atomic.Int64
	busyNs   atomic.Int64
	saveNs   atomic.Int64 // sum−max of serially run scatters
}

// WithShards partitions the store into n independent parts by host × time
// epoch; n <= 1 keeps the single part New starts with. The part count
// changes only real CPU: charged cost, Stats, and every query result are
// byte-identical for any n. The option must be applied at New/Open time,
// before any event is added; it also overrides the shard count recorded in a
// persisted store's manifest when used with Open.
func WithShards(n int) Option {
	return func(st *Store) {
		st.shardSet = true
		if err := st.configureShards(n, st.shardEpoch); err != nil {
			// Options run inside New, before any events can exist; the only
			// reachable error is a bad count.
			panic("store: " + err.Error())
		}
	}
}

// WithShardEpoch sets the width, in seconds, of the time slice in the
// host × time shard-assignment key. Zero (the default) uses one segment span
// (bucketSeconds × 24, i.e. one day at default settings), so a host's day of
// activity lands in one shard and consecutive days stripe across shards.
func WithShardEpoch(seconds int64) Option {
	return func(st *Store) {
		if seconds > 0 {
			st.shardEpoch = seconds
		}
	}
}

// configureShards (re)creates the part list. It must run before any event
// is added.
func (s *Store) configureShards(n int, epoch int64) error {
	if s.sealed {
		return ErrSealed
	}
	if s.NumEvents() != 0 {
		return fmt.Errorf("shards must be configured before events are added")
	}
	if epoch > 0 {
		s.shardEpoch = epoch
	}
	if n < 1 {
		n = 1
	}
	if n > MaxShards {
		return fmt.Errorf("shard count %d exceeds MaxShards (%d)", n, MaxShards)
	}
	s.parts = make([]*part, n)
	for i := range s.parts {
		s.parts[i] = &part{hosts: make(map[string]struct{})}
	}
	// Open attaches telemetry before the manifest configures shards, so
	// refresh the layout gauge here as well as in SetTelemetry.
	s.tel.shards.Set(int64(n))
	return nil
}

// epochSeconds resolves the routing epoch lazily, so a manifest- or
// option-supplied bucket width set after New is still honored.
func (s *Store) epochSeconds() int64 {
	if s.shardEpoch > 0 {
		return s.shardEpoch
	}
	s.shardEpoch = s.bucketSeconds * segmentBuckets
	return s.shardEpoch
}

// fnvHost is FNV-32a over the host name, allocation-free.
func fnvHost(host string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(host); i++ {
		h ^= uint32(host[i])
		h *= 16777619
	}
	return h
}

// floorDiv is integer division rounding toward negative infinity, so epoch
// cells are well-defined for pre-1970 timestamps too.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// add appends an event to its part: host hash plus time-epoch index, so one
// host's activity stripes across parts day by day (host × time cells, not
// whole hosts — a noisy host cannot hot-spot a single part forever). With
// several parts the event is stamped with its global arrival index, which
// later makes cross-part merges reproduce ingestion order, and its host is
// noted for ShardInfos; a single part's log positions already are the
// arrival order and there is no spread to describe.
func (s *Store) add(e event.Event, host string) {
	cell := uint64(fnvHost(host)) + uint64(floorDiv(e.Time, s.epochSeconds()))
	p := s.parts[cell%uint64(len(s.parts))]
	if p.inOrder == len(p.events) && (p.inOrder == 0 || e.Time >= p.events[p.inOrder-1].Time) {
		p.inOrder++
	}
	p.events = append(p.events, e)
	if len(s.parts) > 1 {
		p.seq = append(p.seq, uint32(s.total))
		p.hosts[host] = struct{}{}
	}
	s.total++
}

// packRef encodes a (part, position) event reference in one word.
func packRef(part, pos int) uint64 { return uint64(part)<<32 | uint64(uint32(pos)) }

func (s *Store) at(ref uint64) *event.Event {
	return &s.parts[ref>>32].events[uint32(ref)]
}

// --- Seal ---------------------------------------------------------------

// buildDirectory writes into out the directory entries of every part's
// events from starts[part] on, merged into global (time, seq) order by
// pairwise parallel merge rounds over packed references. With one part there
// is nothing to merge and the entries are the identity.
func (s *Store) buildDirectory(out []uint64, starts []int) {
	k := len(s.parts)
	bounds := make([]int, k+1)
	off := 0
	for si, p := range s.parts {
		bounds[si] = off
		for pos := starts[si]; pos < len(p.events); pos++ {
			out[off] = packRef(si, pos)
			off++
		}
	}
	bounds[k] = off
	if k == 1 {
		return // no merge round runs: no merge buffer either
	}

	less := func(a, b uint64) bool {
		return before(s.parts[a>>32], int32(a), s.parts[b>>32], int32(b))
	}
	buf := make([]uint64, len(out))
	src, dst := out, buf
	for width := 1; width < k; width *= 2 {
		var wg sync.WaitGroup
		for lo := 0; lo < k; lo += 2 * width {
			a := bounds[lo]
			mid := bounds[min(lo+width, k)]
			b := bounds[min(lo+2*width, k)]
			wg.Add(1)
			go func(out, x, y []uint64) {
				defer wg.Done()
				i, j, w := 0, 0, 0
				for i < len(x) && j < len(y) {
					if less(y[j], x[i]) {
						out[w] = y[j]
						j++
					} else {
						out[w] = x[i]
						i++
					}
					w++
				}
				w += copy(out[w:], x[i:])
				copy(out[w:], y[j:])
			}(dst[a:b], src[a:mid], src[mid:b])
		}
		wg.Wait()
		src, dst = dst, src
	}
	copy(out, src)
}

// buildIDIndex builds the EventID -> packed reference index, extending
// prev's (the dense index of the prevTotal events sealed before; dense is
// false when those fell back to the map). IDs assigned by AddEvent are
// exactly 1..n, so the common case is a dense array (idPos[id-1] holds
// ref+1): prev's slots are kept — in prev's own array when shared is set,
// that is when no event prev holds moved — and the slots of every part's
// events from keep[part] on are written per part in parallel. Segment files
// could in principle carry arbitrary IDs, so non-dense or duplicate IDs fall
// back to the map index, built in global time order (last in time order
// wins).
func (s *Store) buildIDIndex(prev []uint64, prevTotal int, keep []int, dense, shared bool) {
	n := s.total
	// A shared array may only be written past prev: the new IDs must all be.
	lo := event.EventID(1)
	if shared {
		lo = event.EventID(prevTotal + 1)
	}
scan:
	for si, p := range s.parts {
		for _, e := range p.events[keep[si]:] {
			if !dense || e.ID < lo || e.ID > event.EventID(n) {
				dense = false
				break scan
			}
		}
	}
	if dense {
		idPos := grow(prev, prevTotal, n, shared)
		var wg sync.WaitGroup
		for si, p := range s.parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pos := keep[si]; pos < len(p.events); pos++ {
					idPos[p.events[pos].ID-1] = packRef(si, pos) + 1
				}
			}()
		}
		wg.Wait()
		// prev was a permutation of 1..prevTotal; duplicate IDs leave a
		// pigeonhole past it empty, so only a permutation of 1..n fills
		// every slot.
		if !slices.Contains(idPos[prevTotal:], 0) {
			s.idPos = idPos
			s.byID = nil
			return
		}
	}
	s.idPos = nil
	s.byID = make(map[event.EventID]uint64, n)
	for _, ref := range s.dir {
		s.byID[s.at(ref).ID] = ref
	}
}

// --- Scatter ------------------------------------------------------------

// scattered reports whether a probe is worth a timed scatter: work inside
// one part, or a window-sized probe, is walked inline and untimed.
func scattered(severalParts bool, totalRows int) bool {
	return severalParts && totalRows >= shardScatterCutoff
}

// scatter runs work(0..n-1), one call per run, timing each: concurrently
// when cores allow, serially otherwise. The timing feeds the savable-nanos
// counter: how much wall a perfectly parallel scatter would shed versus what
// actually ran. On a multi-core host the saving is realized directly and the
// counter stays near zero; on a single core it is the measured critical-path
// projection. Results must not depend on execution order: every call owns
// its slot (TestShardDifferential holds flat and sharded answers equal).
//
// The returned slice holds each call's busy nanos — the query profiler
// attributes from it; timing never affects charged cost.
func (s *Store) scatter(n int, work func(i int)) []int64 {
	s.scat.scatters.Add(1)
	s.tel.scatters.Inc()
	durs := make([]int64, n)
	concurrent := runtime.GOMAXPROCS(0) > 1
	var wg sync.WaitGroup
	timed := func(i int) {
		t0 := time.Now()
		work(i)
		durs[i] = int64(time.Since(t0))
	}
	for i := 0; i < n; i++ {
		if !concurrent {
			timed(i)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			timed(i)
		}()
	}
	wg.Wait()
	var busy, longest int64
	for _, d := range durs {
		busy += d
		longest = max(longest, d)
	}
	savable := int64(0)
	if !concurrent {
		savable = busy - longest
	}
	s.scat.busyNs.Add(busy)
	s.scat.saveNs.Add(savable)
	s.tel.scatterBusy.Add(busy)
	s.tel.scatterSavable.Add(savable)
	if s.tel.shardBusy != nil {
		for _, d := range durs {
			s.tel.shardBusy.Observe(float64(d))
		}
	}
	return durs
}

// --- Probes -------------------------------------------------------------

// run is one part's slice of a posting probe: the bounds, in the part's
// posting arrays of one endpoint index, of the entries inside the window.
// It is deliberately small — a probe's scratch is MaxShards of them on the
// caller's stack — so everything else is looked up through cols.
type run struct {
	lo, hi int32
	part   uint8
	fwd    bool // the run is in the source-endpoint index
}

// post returns the posting index of one endpoint: destination objects for
// backward queries, source objects for forward.
func (p *part) post(forward bool) *postings {
	if forward {
		return p.bySrc
	}
	return p.byDst
}

// cols resolves a run's part and posting index.
func (s *Store) cols(r run) (*part, *postings) {
	p := s.parts[r.part]
	return p, p.post(r.fwd)
}

// window binary-searches [from, to) on obj's posting list in one part and
// returns the bounds in the part's posting arrays plus the list's whole
// length. A part whose time extent misses the window is not searched. The
// upper bound is searched only above the lower one, since to >= from for
// every well-formed window (a backwards window still yields an empty range).
func (p *part) window(obj event.ObjID, forward bool, from, to int64) (lo, hi int32, n int) {
	pl := p.post(forward)
	if uint(obj) >= uint(len(pl.span)) {
		return 0, 0, 0
	}
	a, b := pl.span[obj].lo, pl.span[obj].hi
	if a == b || p.maxTime < from || p.minTime >= to {
		return a, a, int(b - a)
	}
	lo = a + int32(searchTimes(pl.times[a:b], from))
	hi = lo + int32(searchTimes(pl.times[lo:b], to))
	return lo, hi, int(b - a)
}

// collect appends to runs, for every part that holds rows of obj inside
// [from, to), the run of those rows. It returns the extended runs, the summed
// posting length across all parts (deciding the hit/miss telemetry), and the
// summed window rows (what the query charges). Callers pass a slice over
// their own stack scratch, so collecting never allocates.
func (s *Store) collect(runs []run, obj event.ObjID, forward bool, from, to int64) (_ []run, postingLen, rows int) {
	for pi, p := range s.parts {
		lo, hi, n := p.window(obj, forward, from, to)
		postingLen += n
		if lo < hi {
			runs = append(runs, run{lo: lo, hi: hi, part: uint8(pi), fwd: forward})
			rows += int(hi - lo)
		}
	}
	return runs, postingLen, rows
}

// noteProbe emits the single posting hit/miss of a probe and its fan-out.
func (s *Store) noteProbe(postingLen, fanout int) {
	if postingLen > 0 {
		s.tel.postingHits.Inc()
	} else {
		s.tel.postingMisses.Inc()
	}
	s.noteFanout(fanout)
}

// noteFanout records how many parts a probe that spread over several had
// to touch.
func (s *Store) noteFanout(parts int) {
	if parts > 1 && s.tel.scatterFanout != nil {
		s.tel.scatterFanout.Observe(float64(parts))
	}
}

// spread counts the distinct parts a probe's runs lie in (FileTimes collects
// from two endpoint indexes, so a part may hold two of them).
func spread(runs []run) int {
	var mask uint64 // MaxShards = 64 makes a word-sized set exact
	for _, r := range runs {
		mask |= 1 << r.part
	}
	return bits.OnesCount64(mask)
}

// before orders two events of different parts by (time, arrival sequence).
func before(pa *part, a int32, pb *part, b int32) bool {
	ta, tb := pa.events[a].Time, pb.events[b].Time
	if ta != tb {
		return ta < tb
	}
	return pa.seq[a] < pb.seq[b]
}

// mergeRuns k-way merges two or more runs into buf, which has room for their
// rows, in (time, seq) order — exactly the order one part's posting list
// would hold them in. The head key
// of every run is cached, so picking the next row reads one small array and
// only the run that advanced touches its posting columns again.
func (s *Store) mergeRuns(buf []event.Event, runs []run, rows int) []event.Event {
	type head struct {
		t   int64
		seq uint32
	}
	var heads [MaxShards]head
	for ri, r := range runs {
		p, pl := s.cols(r)
		heads[ri] = head{pl.times[r.lo], p.seq[pl.idx[r.lo]]}
	}
	out := buf[len(buf) : len(buf)+rows]
	for n := range out {
		best := -1
		var bh head
		for ri := range runs {
			if runs[ri].lo == runs[ri].hi {
				continue
			}
			if h := heads[ri]; best < 0 || h.t < bh.t || (h.t == bh.t && h.seq < bh.seq) {
				best, bh = ri, h
			}
		}
		r := &runs[best]
		p, pl := s.cols(*r)
		out[n] = p.events[pl.idx[r.lo]]
		if r.lo++; r.lo < r.hi {
			heads[best] = head{pl.times[r.lo], p.seq[pl.idx[r.lo]]}
		}
	}
	return buf[:len(buf)+rows]
}

// CollectMatches scans [from, to) in global time order and returns the
// events for which a predicate holds, in that order. newPred builds one
// predicate instance per part walked — batch triage hands it a privately
// compiled plan matcher, which is what lets a big scan walk its parts
// concurrently.
//
// Charged cost is that of the equivalent full Scan: every row in the range,
// plus the window's buckets, in one charge — identical for any part count. If
// any predicate errors, the error reported is the one at the earliest global
// position (deterministic for any layout); the rows charged on the error path
// are those actually visited, which an aborted batch never compares anyway.
func (s *Store) CollectMatches(from, to int64, newPred func() func(event.Event) (bool, error)) ([]event.Event, error) {
	if !s.sealed {
		return nil, ErrNotSealed
	}
	// leg is one part's slice of the scan and what its walk found: the log
	// positions that matched and, if the predicate failed, where.
	type leg struct {
		p      *part
		sid    int
		lo, hi int
		rows   int64
		hits   []int32
		err    error
		errPos int32
	}
	var legs []leg
	total := 0
	for si, p := range s.parts {
		ev := p.events
		if len(ev) == 0 || p.maxTime < from || p.minTime >= to {
			continue
		}
		lo := sort.Search(len(ev), func(i int) bool { return ev[i].Time >= from })
		hi := lo + sort.Search(len(ev)-lo, func(i int) bool { return ev[lo+i].Time >= to })
		if lo == hi {
			continue
		}
		total += hi - lo
		legs = append(legs, leg{p: p, sid: si, lo: lo, hi: hi})
	}
	walk := func(i int) {
		l := &legs[i]
		pred := newPred()
		for pos := l.lo; pos < l.hi; pos++ {
			l.rows++
			ok, err := pred(l.p.events[pos])
			if err != nil {
				l.err, l.errPos = err, int32(pos)
				return
			}
			if ok {
				l.hits = append(l.hits, int32(pos))
			}
		}
	}
	var durs []int64
	if scattered(len(legs) > 1, total) {
		durs = s.scatter(len(legs), walk)
	} else {
		for i := range legs {
			walk(i)
		}
	}
	s.noteFanout(len(legs))

	var rows int64
	matched := 0
	failed := -1
	for i := range legs {
		l := &legs[i]
		rows += l.rows
		matched += len(l.hits)
		if l.err != nil && (failed < 0 || before(l.p, l.errPos, legs[failed].p, legs[failed].errPos)) {
			failed = i
		}
	}
	s.charge(rows, from, to)
	qp, b := s.sampling()
	emit := func(mergeNs int64) {
		if b == nil {
			return
		}
		for i := range legs {
			if len(s.parts) > 1 { // one part's split is the whole query
				ss := qprof.ShardSample{Shard: legs[i].sid, Rows: legs[i].rows}
				if durs != nil {
					ss.BusyNs = durs[i]
				}
				b.shards = append(b.shards, ss)
			}
		}
		s.emit(qp, b, qprof.KindMatches, rows, mergeNs)
	}
	if failed >= 0 {
		emit(0)
		return nil, legs[failed].err
	}
	if matched == 0 {
		emit(0)
		return nil, nil
	}

	// One leg's matches are already in order; several are k-way merged by
	// (time, seq).
	var start time.Time
	if qp != nil && len(legs) > 1 {
		start = time.Now()
	}
	out := make([]event.Event, 0, matched)
	for len(out) < matched {
		best := -1
		for i := range legs {
			l := &legs[i]
			if len(l.hits) == 0 {
				continue
			}
			if best < 0 || before(l.p, l.hits[0], legs[best].p, legs[best].hits[0]) {
				best = i
			}
		}
		l := &legs[best]
		out = append(out, l.p.events[l.hits[0]])
		l.hits = l.hits[1:]
	}
	var mergeNs int64
	if !start.IsZero() {
		mergeNs = int64(time.Since(start))
	}
	emit(mergeNs)
	return out, nil
}

// --- Introspection ------------------------------------------------------

// ShardInfo describes one shard of a sealed store, for apquery -stats and
// capacity planning.
type ShardInfo struct {
	Shard   int
	Events  int
	Hosts   int
	MinTime int64
	MaxTime int64
}

// ShardCount returns the number of parts; 1 unless WithShards asked for more.
func (s *Store) ShardCount() int { return len(s.parts) }

// ShardEpochSeconds returns the host × time routing epoch width; 0 for a
// store with one part, where routing has no choice to make. It never writes,
// so it is safe on stores already serving concurrent queries.
func (s *Store) ShardEpochSeconds() int64 {
	switch {
	case len(s.parts) == 1:
		return 0
	case s.shardEpoch > 0:
		return s.shardEpoch
	}
	return s.bucketSeconds * segmentBuckets
}

// ShardInfos returns per-shard extents; nil for a store with one part,
// which has no spread to describe.
func (s *Store) ShardInfos() []ShardInfo {
	if len(s.parts) == 1 {
		return nil
	}
	infos := make([]ShardInfo, len(s.parts))
	for i, p := range s.parts {
		infos[i] = ShardInfo{
			Shard:   i,
			Events:  len(p.events),
			Hosts:   len(p.hosts),
			MinTime: p.minTime,
			MaxTime: p.maxTime,
		}
	}
	return infos
}

// ShardScatterStats reports the cumulative real-CPU scatter accounting:
// scatters timed, their summed per-run busy time, and the portion a
// perfectly parallel run would shed (zero when the scatters already ran
// concurrently — the saving is then realized in wall clock directly). The
// savable figure is the critical-path wall a multi-core host would observe;
// timing never changes an answer (TestShardDifferential). A store with one
// part never scatters.
func (s *Store) ShardScatterStats() (scatters, busyNanos, savableNanos int64) {
	return s.scat.scatters.Load(), s.scat.busyNs.Load(), s.scat.saveNs.Load()
}
