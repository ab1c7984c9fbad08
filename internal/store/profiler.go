package store

import (
	"math/bits"

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

// shardSnap captures per-run (shard, rows, busy) before a merge consumes the
// run cursors. durs, when non-nil, holds scatter-measured busy nanos indexed
// like runs; nil means the probe ran inline and untimed.
func shardSnap(runs []run, durs []int64) []qprof.ShardSample {
	snap := make([]qprof.ShardSample, len(runs))
	for i, r := range runs {
		snap[i] = qprof.ShardSample{Shard: int(r.part), Rows: int64(r.hi - r.lo)}
		if durs != nil {
			snap[i].BusyNs = durs[i]
		}
	}
	return snap
}

// finishSample fills in what every sample derives from its per-shard split:
// the routing epoch, the busy and savable totals, and the fan-out — the
// distinct shards touched (FileTimes and write-through walk two endpoint
// indexes, so the same shard may appear twice). A store with one part
// reports what profiles of unpartitioned stores have always shown, empty
// probes included: a fan-out of one onto shard 0 carrying the charged rows,
// so profiles stay comparable across layouts.
func (s *Store) finishSample(smp *qprof.Sample) {
	smp.Epoch = s.qprofEpoch(smp.From)
	var busy, longest int64
	var mask uint64 // MaxShards = 64 makes a word-sized set exact
	for _, ss := range smp.Shards {
		busy += ss.BusyNs
		longest = max(longest, ss.BusyNs)
		mask |= 1 << uint(ss.Shard)
	}
	if busy > 0 {
		smp.BusyNs = busy
		smp.SavableNs = busy - longest
	}
	smp.Fanout = bits.OnesCount64(mask)
	if len(s.parts) == 1 {
		smp.Fanout, smp.Shards = 1, append(smp.Shards[:0], qprof.ShardSample{Rows: smp.Rows})
	}
}

// emit builds a query's sample from its per-shard split, adds the split to
// the routing heat ShardInfos reports, and hands the sample to the scatter
// observer and the profiler. Either may be nil, not both: callers snapshot
// the split only when someone listens, so an unobserved query pays for none
// of this — not even the stack a sample would take in its frame. obj is -1
// for range queries.
func (s *Store) emit(qp *qprof.Profiler, obs ScatterObserver, kind qprof.Kind, obj, from, to, rows, postingLen, mergeNs int64, shards []qprof.ShardSample) {
	smp := qprof.Sample{
		Kind: kind, Obj: obj, From: from, To: to,
		Rows: rows, PostingLen: postingLen, MergeNs: mergeNs, Shards: shards,
	}
	s.finishSample(&smp)
	if len(s.parts) > 1 { // one part has no spread to keep heat of
		for _, ss := range smp.Shards {
			p := s.parts[ss.Shard]
			p.queries.Add(1)
			p.rows.Add(ss.Rows)
			p.busyNs.Add(ss.BusyNs)
		}
	}
	if obs != nil {
		shardRows := make([]int64, len(s.parts))
		for _, ss := range smp.Shards {
			shardRows[ss.Shard] += ss.Rows
		}
		obs(smp.Fanout, shardRows)
	}
	qp.Observe(smp)
}

// noteRuns emits the sample of an attribute walk, whose runs are still
// intact (the posting merge snapshots earlier).
func (s *Store) noteRuns(kind qprof.Kind, obj event.ObjID, from, to int64, runs []run, postingLen int, rows int64, durs []int64) {
	qp, obs := s.qp.Load(), s.scatterObs
	if qp == nil && obs == nil {
		return
	}
	s.emit(qp, obs, kind, int64(obj), from, to, rows, int64(postingLen), 0, shardSnap(runs, durs))
}
