// Package qprof is the query-level scatter-gather profiler for the sharded
// store: it records, per routed query, the shard fan-out, per-shard rows and
// busy time, k-way merge time, savable (Σ−max) overlap, and the skew ratio
// between the busiest shard and the mean — the numbers that decide whether a
// host×time layout is balanced before anyone tunes shard counts at paper
// scale.
//
// Like explain and timeline, the profiler is an opt-in observer on the side
// of the query path: a nil *Profiler is a ready-to-use no-op costing one
// pointer check per query, and an attached profiler observes only real CPU —
// charged simulated cost, Stats, stdout tables, and DOT graphs are
// byte-identical with profiling on or off (enforced by differential tests in
// internal/store).
//
// Samples aggregate into per-kind totals, skew quantiles and a ring of the
// most recent samples. Per-shard heat is the store's (store.ShardInfos), fed
// by the same samples. Everything but the timing fields is deterministic: two
// runs issuing the same queries produce identical query and row accounting.
package qprof

import (
	"slices"
	"sync"
)

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

var kindNames = [numKinds]string{
	"backward", "forward", "count_backward", "count_forward",
	"read_only", "write_through", "file_times",
	"matches", "scan",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// ShardSample is one shard's share of a routed query.
type ShardSample struct {
	Shard  int   `json:"shard"`
	Rows   int64 `json:"rows"`
	BusyNs int64 `json:"busy_ns,omitempty"`
}

// Sample is one profiled store query. Rows/PostingLen/Fanout/Shards[].Rows
// are deterministic (they mirror what the query charged); the *Ns fields are
// real CPU measured only when the scatter actually timed its tasks (big
// probes), zero for inline sub-cutoff probes.
type Sample struct {
	Kind       Kind          `json:"kind"`
	Obj        int64         `json:"obj"`    // object ID; -1 for range queries (scan, matches)
	Fanout     int           `json:"fanout"` // shards touched (1 on a flat store)
	Rows       int64         `json:"rows"`
	PostingLen int64         `json:"posting_len,omitempty"`
	MergeNs    int64         `json:"merge_ns,omitempty"`
	BusyNs     int64         `json:"busy_ns,omitempty"`
	SavableNs  int64         `json:"savable_ns,omitempty"` // Σ−max over shard busy
	Shards     []ShardSample `json:"shards,omitempty"`
}

// Skew is the sample's shard skew ratio: max/mean over per-shard busy nanos
// when the scatter was timed, falling back to per-shard rows for inline
// (untimed) probes. 1.0 means perfectly balanced; 0 means the sample touched
// fewer than two shards (no skew to speak of).
func (s *Sample) Skew() float64 {
	if len(s.Shards) < 2 {
		return 0
	}
	var rows, busy, maxRows, maxBusy int64
	for _, ss := range s.Shards {
		rows, maxRows = rows+ss.Rows, max(maxRows, ss.Rows)
		busy, maxBusy = busy+ss.BusyNs, max(maxBusy, ss.BusyNs)
	}
	sum, top := rows, maxRows
	if maxBusy > 0 { // timed
		sum, top = busy, maxBusy
	}
	if sum <= 0 {
		return 0
	}
	return float64(top) / (float64(sum) / float64(len(s.Shards)))
}

const (
	skewRingCap   = 4096 // skew values retained for quantile estimates
	recentRingCap = 32   // most recent samples kept for breakdown tables
)

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

// Aggregate is a run of samples folded where they were made — a store view
// keeps one, one goroutine by construction — so that the shared profiler's
// lock and cache lines are paid once per Fold and not once per query. It
// holds what the samples sum to, their skews, and the newest of them, raw,
// for Recent. The caller writes each sample in place, into the slot Next
// returns, and then calls Add. A profiler fed aggregates of any length ends
// up exactly where one fed sample by sample does.
type Aggregate struct {
	totals
	skews  []float64
	recent [recentRingCap]Sample // sample i of this aggregate in slot i%recentRingCap
}

// Next returns the slot of the aggregate's next sample. It still holds an
// older sample: the caller overwrites every field, and reuses the storage of
// its Shards if it keeps one, before it calls Add.
func (a *Aggregate) Next() *Sample { return &a.recent[a.queries%recentRingCap] }

// Add folds in the sample written into Next's slot and returns how many a
// holds since the last Fold.
func (a *Aggregate) Add() int {
	s := a.Next()
	k := kindAgg{1, s.Rows, s.BusyNs, s.MergeNs}
	a.kindAgg.add(k)
	if int(s.Kind) < len(a.byKind) {
		a.byKind[s.Kind].add(k)
	}
	a.fanoutSum += int64(s.Fanout)
	a.savableNs += s.SavableNs
	if s.Fanout > 1 {
		a.scattered++
		if sk := s.Skew(); sk > 0 {
			a.skews = append(a.skews, sk)
		}
	}
	return int(a.queries)
}

// Profiler aggregates query samples. All methods are safe on a nil receiver
// (no-ops) and safe for concurrent use.
type Profiler struct {
	mu sync.Mutex

	shardCount   int
	epochSeconds int64

	totals

	skews   [skewRingCap]float64
	skewN   int64 // total skew values ever pushed
	recent  [recentRingCap]Sample
	recentN int64

	one Aggregate // Observe's: a sample arriving alone
}

// New returns an empty profiler.
func New() *Profiler { return &Profiler{} }

// SetLayout records the store layout the profiler observes (shard count and
// routing epoch width), for reporting only. The store calls it when the
// profiler is attached.
func (p *Profiler) SetLayout(shards int, epochSeconds int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if shards > p.shardCount {
		p.shardCount = shards
	}
	if epochSeconds > 0 {
		p.epochSeconds = epochSeconds
	}
	p.mu.Unlock()
}

// Observe records one query sample: how a store whose queries may come from
// any goroutine delivers them.
func (p *Profiler) Observe(s Sample) {
	if p == nil {
		return
	}
	p.mu.Lock()
	r := p.one.Next()
	shards := append(r.Shards[:0], s.Shards...)
	*r = s
	r.Shards = shards
	p.one.Add()
	p.fold(&p.one)
	p.mu.Unlock()
}

// Fold records the samples a has gathered, in order, under one lock, and
// empties it: how a store view delivers what it sampled (see
// store.FlushQueryProfile).
func (p *Profiler) Fold(a *Aggregate) {
	if p == nil || a.queries == 0 {
		return
	}
	p.mu.Lock()
	p.fold(a)
	p.mu.Unlock()
}

// fold is Fold with p.mu held.
func (p *Profiler) fold(a *Aggregate) {
	p.totals.add(&a.totals)
	for _, sk := range a.skews {
		p.skews[p.skewN%skewRingCap] = sk
		p.skewN++
	}
	// Only the newest recentRingCap samples can survive in the recent ring.
	for i := max(0, a.queries-recentRingCap); i < a.queries; i++ {
		src, dst := &a.recent[i%recentRingCap], &p.recent[(p.recentN+i)%recentRingCap]
		shards := append(dst.Shards[:0], src.Shards...)
		*dst = *src
		dst.Shards = shards
	}
	p.recentN += a.queries
	a.totals, a.skews = totals{}, a.skews[:0] // emptied, storage kept
}

// skewSlice returns the retained skew values in a fresh sorted slice.
// Callers must hold p.mu.
func (p *Profiler) skewSlice() []float64 {
	out := slices.Clone(p.skews[:min(p.skewN, skewRingCap)])
	slices.Sort(out)
	return out
}

// quantile reads the q-quantile (0..1) from an ascending slice (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// Recent returns up to recentRingCap most recent samples, newest last.
func (p *Profiler) Recent() []Sample {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := min(p.recentN, recentRingCap)
	out := make([]Sample, 0, n)
	for i := p.recentN - n; i < p.recentN; i++ {
		s := p.recent[i%recentRingCap]
		s.Shards = append([]ShardSample(nil), s.Shards...) // the slot's storage is reused
		out = append(out, s)
	}
	return out
}
