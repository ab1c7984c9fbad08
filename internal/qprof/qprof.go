// Package qprof is the query-level scatter-gather profiler for the sharded
// store: it sums, in total and per kind of store query, the queries, rows,
// shard fan-out, real-CPU busy and k-way merge time, and the savable (Σ−max)
// overlap of the scatters — the numbers that decide whether a host×time
// layout pays for itself.
//
// The profiler is an opt-in observer on the side of the query path: a nil
// *Profiler is a ready-to-use no-op costing one pointer check per query, and
// an attached profiler observes only real CPU — charged simulated cost,
// Stats, stdout tables, and DOT graphs are byte-identical with profiling on
// or off (enforced by differential tests in internal/store). Everything but
// the timing fields is deterministic: two runs issuing the same queries
// count the same queries and rows.
//
// The totals have no reader outside tests: the package is the write path a
// profiled query pays for, which the store's QueryWithProfiler benchmark
// prices.
package qprof

import "sync"

// Kind labels which store query produced a sample.
type Kind uint8

const (
	KindBackward Kind = iota
	KindForward
	KindCountBackward
	KindCountForward
	KindReadOnly
	KindWriteThrough
	KindFileTimes
	KindMatches
	KindScan
	numKinds
)

// ShardSample is one shard's share of a routed query.
type ShardSample struct {
	Shard  int
	Rows   int64
	BusyNs int64
}

// Sample is one profiled store query. Rows and Fanout are deterministic
// (they mirror what the query charged); the *Ns fields are real CPU measured
// only when the scatter actually timed its tasks (big probes), zero for
// inline sub-cutoff probes.
type Sample struct {
	Kind      Kind
	Fanout    int // shards touched (1 on a flat store)
	Rows      int64
	MergeNs   int64
	BusyNs    int64
	SavableNs int64 // Σ−max over shard busy
}

// kindAgg is what samples of one kind, or of all kinds, sum to.
type kindAgg struct {
	queries, rows, busyNs, mergeNs int64
}

func (k *kindAgg) add(o kindAgg) {
	k.queries += o.queries
	k.rows += o.rows
	k.busyNs += o.busyNs
	k.mergeNs += o.mergeNs
}

// totals is what samples sum to, whoever adds them up.
type totals struct {
	kindAgg         // over all kinds
	scattered int64 // samples with fanout > 1
	fanoutSum int64
	savableNs int64
	byKind    [numKinds]kindAgg
}

func (t *totals) add(o *totals) {
	t.kindAgg.add(o.kindAgg)
	t.scattered += o.scattered
	t.fanoutSum += o.fanoutSum
	t.savableNs += o.savableNs
	for k := range t.byKind {
		t.byKind[k].add(o.byKind[k])
	}
}

// addSample folds one sample in.
func (t *totals) addSample(s *Sample) {
	k := kindAgg{1, s.Rows, s.BusyNs, s.MergeNs}
	t.kindAgg.add(k)
	if int(s.Kind) < len(t.byKind) {
		t.byKind[s.Kind].add(k)
	}
	t.fanoutSum += int64(s.Fanout)
	t.savableNs += s.SavableNs
	if s.Fanout > 1 {
		t.scattered++
	}
}

// Aggregate is a run of samples folded where they were made — a store view
// keeps one, one goroutine by construction — so that the shared profiler's
// lock and cache lines are paid once per Fold and not once per query. A
// profiler fed aggregates of any length ends up exactly where one fed sample
// by sample does.
type Aggregate struct {
	totals
}

// Add folds in one sample and returns how many a holds since the last Fold.
func (a *Aggregate) Add(s *Sample) int {
	a.addSample(s)
	return int(a.queries)
}

// Profiler aggregates query samples. All methods are safe on a nil receiver
// (no-ops) and safe for concurrent use.
type Profiler struct {
	mu sync.Mutex
	totals
}

// New returns an empty profiler.
func New() *Profiler { return &Profiler{} }

// Observe records one query sample: how a store whose queries may come from
// any goroutine delivers them.
func (p *Profiler) Observe(s Sample) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.addSample(&s)
	p.mu.Unlock()
}

// Fold records the samples a has gathered under one lock, and empties it:
// how a store view delivers what it sampled (see store.FlushQueryProfile).
func (p *Profiler) Fold(a *Aggregate) {
	if p == nil || a.queries == 0 {
		return
	}
	p.mu.Lock()
	p.totals.add(&a.totals)
	p.mu.Unlock()
	a.totals = totals{}
}
