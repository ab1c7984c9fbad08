package store

import (
	"math/bits"
	"slices"
	"sync"

	"aptrace/internal/qprof"
)

// Query-profiler hooks. Every emission lives behind one atomic pointer load
// plus a nil check, so a store without a profiler pays ≈ns per query — the
// same contract as the explain and timeline observers. Emission happens
// after charge() and reads only real CPU and already-computed row counts:
// profiling on or off never changes charged cost, Stats, or query results.

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

// sampleBatchLen is how many samples a view folds into its aggregate before
// it hands that to the shared profiler: the profiler's lock is taken a few
// hundred times less often.
const sampleBatchLen = 256

// sampleBatch is a store's scratch for profiling a query: the per-shard split
// of the query under way, and on a view — one run's handle on the store, one
// goroutine by construction — the aggregate its samples are folded into until
// sampleBatchLen are due or FlushQueryProfile says the run is over. Nothing is
// allocated per query once the buffers have grown. A root store, which promises
// safe concurrent readers, borrows one per query and delivers the sample at once.
type sampleBatch struct {
	agg    qprof.Aggregate
	shards []qprof.ShardSample // the split of the query under way; kept only with several parts
	rows   []int64             // per-part rows handed to the scatter observer
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
	b := s.batch
	switch {
	case !s.isView:
		b = rootBatches.Get().(*sampleBatch)
	case b == nil:
		b = new(sampleBatch)
		s.batch = b
	}
	b.shards = b.shards[:0] // a query that failed between its split and its emit left one
	return qp, b
}

// split adds the per-run (shard, rows, busy) of a probe to the query's split,
// before a merge consumes the run cursors. durs holds scatter-measured busy
// nanos indexed like runs; nil means the probe ran inline and untimed. A nil
// batch (nobody listens) and a store with one part, whose split is the whole
// query, take nothing.
func (s *Store) split(b *sampleBatch, runs []run, durs []int64) {
	if b == nil || len(s.parts) == 1 {
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

// FlushQueryProfile folds the samples a view still holds into the profiler.
// The executor calls it when its run ends; whoever else queries a view and
// then reads the profile calls it first. A root store holds none.
func (s *Store) FlushQueryProfile() {
	if s.batch != nil {
		s.qp.Load().Fold(&s.batch.agg)
	}
}

// emit closes a query's sample and hands it on. With several parts it reads
// the split: each part's share goes to the scatter observer, and the sample
// gets the busy and savable totals and the fan-out, the distinct shards
// touched (FileTimes and write-through walk two endpoint indexes, so a shard
// may appear twice). A store with one part reports what unpartitioned stores
// always have, empty probes included — a fan-out of one carrying the charged
// rows — so profiles compare across layouts.
//
// A view folds the sample into its aggregate and hands that to the profiler
// when it is full; a root store delivers the sample at once and its batch of
// one query goes back to the pool. Either the profiler or the scatter
// observer may be missing, not both: sampling returned a batch.
func (s *Store) emit(qp *qprof.Profiler, b *sampleBatch, kind qprof.Kind, rows, mergeNs int64) {
	fanout, busy, savable := 1, int64(0), int64(0)
	if len(s.parts) > 1 {
		var longest int64
		var mask uint64 // MaxShards = 64 makes a word-sized set exact
		for _, ss := range b.shards {
			busy += ss.BusyNs
			longest = max(longest, ss.BusyNs)
			mask |= 1 << uint(ss.Shard)
		}
		fanout, savable = bits.OnesCount64(mask), busy-longest
		if obs := s.scatterObs; obs != nil {
			b.rows = slices.Grow(b.rows[:0], len(s.parts))[:len(s.parts)]
			clear(b.rows)
			for _, ss := range b.shards {
				b.rows[ss.Shard] += ss.Rows
			}
			obs(fanout, b.rows)
		}
	}
	smp := qprof.Sample{Kind: kind, Fanout: fanout, Rows: rows, MergeNs: mergeNs, BusyNs: busy, SavableNs: savable}
	switch {
	case !s.isView:
		qp.Observe(smp)
		rootBatches.Put(b)
	case qp != nil:
		if b.agg.Add(&smp) >= sampleBatchLen {
			qp.Fold(&b.agg)
		}
	}
}

// noteRuns emits the sample of an attribute walk, whose runs are still
// intact (the posting merge snapshots earlier).
func (s *Store) noteRuns(kind qprof.Kind, runs []run, rows int64, durs []int64) {
	if qp, b := s.sampling(); b != nil {
		s.split(b, runs, durs)
		s.emit(qp, b, kind, rows, 0)
	}
}
