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
// Samples aggregate into a shard heatmap: per-(shard, epoch) access counts,
// rows, and busy nanos, plus each shard's hottest objects by rows walked.
// The heatmap is deterministic in everything except timing fields: two runs
// issuing the same queries produce identical access and row accounting.
package qprof

import (
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
	KindFlowAmount
	KindFileTimes
	KindMatches
	KindScan
	numKinds
)

var kindNames = [numKinds]string{
	"backward", "forward", "count_backward", "count_forward",
	"read_only", "write_through", "flow_amount", "file_times",
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
	Obj        int64         `json:"obj"` // object ID; -1 for range queries (scan, matches)
	From, To   int64         `json:"-"`
	Epoch      int64         `json:"epoch"`  // host×time routing epoch index of From
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
	var sum, max int64
	timed := false
	for _, ss := range s.Shards {
		if ss.BusyNs > 0 {
			timed = true
		}
	}
	for _, ss := range s.Shards {
		v := ss.Rows
		if timed {
			v = ss.BusyNs
		}
		sum += v
		if v > max {
			max = v
		}
	}
	if sum <= 0 {
		return 0
	}
	mean := float64(sum) / float64(len(s.Shards))
	return float64(max) / mean
}

const (
	skewRingCap   = 4096 // skew values retained for quantile estimates
	recentRingCap = 32   // most recent samples kept for breakdown tables
)

// kindAgg accumulates per-kind totals.
type kindAgg struct {
	queries, rows, busyNs, mergeNs int64
}

// Profiler aggregates query samples. All methods are safe on a nil receiver
// (no-ops) and safe for concurrent use.
type Profiler struct {
	mu sync.Mutex

	shardCount   int
	epochSeconds int64

	queries   int64 // samples observed
	scattered int64 // samples with fanout > 1
	fanoutSum int64
	rows      int64
	busyNs    int64
	savableNs int64
	mergeNs   int64

	byKind [numKinds]kindAgg

	skews   [skewRingCap]float64
	skewN   int64 // total skew values ever pushed
	recent  [recentRingCap]Sample
	recentN int64

	heat heatmap
}

// New returns an empty profiler.
func New() *Profiler {
	p := &Profiler{}
	p.heat.init()
	return p
}

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

// Observe records one query sample.
func (p *Profiler) Observe(s Sample) {
	if p != nil {
		p.ObserveBatch([]Sample{s})
	}
}

// ObserveBatch records query samples, in order, under one lock: how a store
// view delivers what it sampled (see store.FlushQueryProfile). The samples'
// Shards may share storage the caller reuses; the profiler keeps copies of
// the few it retains.
func (p *Profiler) ObserveBatch(batch []Sample) {
	if p == nil || len(batch) == 0 {
		return
	}
	p.mu.Lock()
	for i := range batch {
		s := &batch[i]
		p.queries++
		p.fanoutSum += int64(s.Fanout)
		p.rows += s.Rows
		p.busyNs += s.BusyNs
		p.savableNs += s.SavableNs
		p.mergeNs += s.MergeNs
		if int(s.Kind) < len(p.byKind) {
			a := &p.byKind[s.Kind]
			a.queries++
			a.rows += s.Rows
			a.busyNs += s.BusyNs
			a.mergeNs += s.MergeNs
		}
		if s.Fanout > 1 {
			p.scattered++
			if sk := s.Skew(); sk > 0 {
				p.skews[p.skewN%skewRingCap] = sk
				p.skewN++
			}
		}
		p.heat.observe(s)
	}
	// Only the newest recentRingCap samples can survive in the recent ring.
	for i := max(0, len(batch)-recentRingCap); i < len(batch); i++ {
		r := &p.recent[(p.recentN+int64(i))%recentRingCap]
		shards := append(r.Shards[:0], batch[i].Shards...)
		*r = batch[i]
		r.Shards = shards
	}
	p.recentN += int64(len(batch))
	p.mu.Unlock()
}

// Queries returns the number of samples observed.
func (p *Profiler) Queries() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queries
}

// SkewQuantile returns the q-quantile (0..1) over retained per-query skew
// ratios, or 0 when no scattered query has been observed.
func (p *Profiler) SkewQuantile(q float64) float64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return quantile(p.skewSlice(), q)
}

// skewSlice returns the retained skew values in a fresh sorted slice.
// Callers must hold p.mu.
func (p *Profiler) skewSlice() []float64 {
	n := p.skewN
	if n > skewRingCap {
		n = skewRingCap
	}
	out := make([]float64, n)
	copy(out, p.skews[:n])
	insertionSort(out)
	return out
}

func insertionSort(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// quantile reads the q-quantile from an ascending slice (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// Recent returns up to recentRingCap most recent samples, newest last.
func (p *Profiler) Recent() []Sample {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.recentN
	if n > recentRingCap {
		n = recentRingCap
	}
	out := make([]Sample, 0, n)
	start := p.recentN - n
	for i := start; i < p.recentN; i++ {
		s := p.recent[i%recentRingCap]
		s.Shards = append([]ShardSample(nil), s.Shards...) // the slot's storage is reused
		out = append(out, s)
	}
	return out
}
