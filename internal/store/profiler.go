package store

import (
	"math/bits"
	"sync"

	"aptrace/internal/event"
	"aptrace/internal/qprof"
)

// Query-profiler hooks. Every emission lives behind one atomic pointer load
// plus a nil check, so a store without a profiler pays ≈ns per query — the
// same contract as the explain and timeline observers. Emission happens
// after charge() and reads only real CPU and already-computed row counts:
// profiling on or off never changes charged cost, Stats, or query results.

// qprofEpoch returns the routing epoch index of t for heatmap bucketing; 0
// on a store with one part, which has no epochs.
func (s *Store) qprofEpoch(t int64) int64 {
	if w := s.ShardEpochSeconds(); w > 0 {
		return floorDiv(t, w)
	}
	return 0
}

// postingKind maps a posting-walk direction to its profiler kind.
func postingKind(forward, count bool) qprof.Kind {
	switch {
	case count && forward:
		return qprof.KindCountForward
	case count:
		return qprof.KindCountBackward
	case forward:
		return qprof.KindForward
	default:
		return qprof.KindBackward
	}
}

// sampleBatchLen is how many samples a view keeps before it folds them into
// the shared profiler: large enough that the profiler's lock and the heat
// maps' cache lines are touched a few hundred times less often, small enough
// that /debug/shards trails a running view by a fraction of a millisecond.
const sampleBatchLen = 256

// sampleBatch is where a store builds its query samples: each in place, its
// per-shard split in one shared arena, nothing allocated per query once the
// buffers have grown. A view — one run's handle on the store, one goroutine
// by construction — keeps one and hands the profiler sampleBatchLen samples
// under one lock (and the rest when FlushQueryProfile says the run is over);
// a root store, which promises safe concurrent readers, borrows one from
// rootBatches per query and delivers it at once.
type sampleBatch struct {
	samples []qprof.Sample
	shards  []qprof.ShardSample // the samples' Shards, then the open sample's split
	open    int                 // where the split of the sample under construction starts
	rows    []int64             // per-part rows handed to the scatter observer
}

var rootBatches = sync.Pool{New: func() any { return new(sampleBatch) }}

// sampling returns the attached profiler and the batch to build this query's
// sample in, or a nil batch when neither a profiler nor a scatter observer
// listens: an unobserved query pays one atomic load for all of this.
func (s *Store) sampling() (*qprof.Profiler, *sampleBatch) {
	qp := s.qp.Load()
	if qp == nil && s.scatterObs == nil {
		return nil, nil
	}
	if !s.isView {
		return qp, rootBatches.Get().(*sampleBatch)
	}
	if s.batch == nil {
		s.batch = new(sampleBatch)
	}
	// A query that failed between its split and its emit left the split open.
	s.batch.shards = s.batch.shards[:s.batch.open]
	return qp, s.batch
}

// split adds the per-run (shard, rows, busy) of a probe to the open sample,
// before a merge consumes the run cursors. durs, when non-nil, holds
// scatter-measured busy nanos indexed like runs; nil means the probe ran
// inline and untimed. A nil batch (nobody listens) takes nothing.
func (b *sampleBatch) split(runs []run, durs []int64) {
	if b == nil {
		return
	}
	for i, r := range runs {
		ss := qprof.ShardSample{Shard: int(r.part), Rows: int64(r.hi - r.lo)}
		if durs != nil {
			ss.BusyNs = durs[i]
		}
		b.shards = append(b.shards, ss)
	}
}

// sample closes the open sample: it takes the split added so far and fills
// in what derives from it — the routing epoch, the busy and savable totals,
// and the fan-out, the distinct shards touched (FileTimes and write-through
// walk two endpoint indexes, so the same shard may appear twice). A store
// with one part reports what profiles of unpartitioned stores have always
// shown, empty probes included: a fan-out of one onto shard 0 carrying the
// charged rows, so profiles stay comparable across layouts. obj is -1 for
// range queries.
func (s *Store) sample(b *sampleBatch, kind qprof.Kind, obj, from, to, rows, postingLen, mergeNs int64) *qprof.Sample {
	if len(s.parts) == 1 {
		b.shards = append(b.shards[:b.open], qprof.ShardSample{Rows: rows})
	}
	shards := b.shards[b.open:len(b.shards):len(b.shards)]
	b.open = len(b.shards)
	var busy, longest int64
	var mask uint64 // MaxShards = 64 makes a word-sized set exact
	for _, ss := range shards {
		busy += ss.BusyNs
		longest = max(longest, ss.BusyNs)
		mask |= 1 << uint(ss.Shard)
	}
	b.samples = append(b.samples, qprof.Sample{})
	smp := &b.samples[len(b.samples)-1]
	*smp = qprof.Sample{
		Kind: kind, Obj: obj, From: from, To: to, Epoch: s.qprofEpoch(from),
		Fanout: bits.OnesCount64(mask), Rows: rows, PostingLen: postingLen, MergeNs: mergeNs,
		Shards: shards,
	}
	if busy > 0 {
		smp.BusyNs, smp.SavableNs = busy, busy-longest
	}
	return smp
}

// deliver hands the batch to the profiler when it cannot wait — a root
// store's batch of one goes back to the pool — or is full; a view's sample
// nobody profiles (a scatter observer alone listens) is taken back at once.
func (s *Store) deliver(qp *qprof.Profiler, b *sampleBatch) {
	if s.isView && qp != nil && len(b.samples) < sampleBatchLen {
		return
	}
	b.flush(qp)
	if !s.isView {
		rootBatches.Put(b)
	}
}

// flush hands the samples to the profiler (nil: nobody) and empties the batch.
func (b *sampleBatch) flush(qp *qprof.Profiler) {
	qp.ObserveBatch(b.samples)
	b.samples, b.shards, b.open = b.samples[:0], b.shards[:0], 0
}

// FlushQueryProfile folds the samples a view still holds into the profiler.
// The executor calls it when its run ends; whoever else queries a view and
// then reads the profile calls it first. A root store holds none.
func (s *Store) FlushQueryProfile() {
	if s.batch != nil {
		s.batch.flush(s.qp.Load())
	}
}

// emit closes a query's sample, adds its split to the routing heat ShardInfos
// reports, and hands it to the scatter observer and the profiler (either may
// be missing, not both: sampling returned a batch).
func (s *Store) emit(qp *qprof.Profiler, b *sampleBatch, kind qprof.Kind, obj, from, to, rows, postingLen, mergeNs int64) {
	smp := s.sample(b, kind, obj, from, to, rows, postingLen, mergeNs)
	if len(s.parts) > 1 { // one part has no spread to keep heat of
		for _, ss := range smp.Shards {
			p := s.parts[ss.Shard]
			p.queries.Add(1)
			p.rows.Add(ss.Rows)
			p.busyNs.Add(ss.BusyNs)
		}
	}
	if obs := s.scatterObs; obs != nil {
		if cap(b.rows) < len(s.parts) {
			b.rows = make([]int64, len(s.parts))
		}
		b.rows = b.rows[:len(s.parts)]
		clear(b.rows)
		for _, ss := range smp.Shards {
			b.rows[ss.Shard] += ss.Rows
		}
		obs(smp.Fanout, b.rows)
	}
	s.deliver(qp, b)
}

// noteRuns emits the sample of an attribute walk, whose runs are still
// intact (the posting merge snapshots earlier).
func (s *Store) noteRuns(kind qprof.Kind, obj event.ObjID, from, to int64, runs []run, postingLen int, rows int64, durs []int64) {
	if qp, b := s.sampling(); b != nil {
		b.split(runs, durs)
		s.emit(qp, b, kind, int64(obj), from, to, rows, int64(postingLen), 0)
	}
}
