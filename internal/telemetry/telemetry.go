// Package telemetry is APTrace's runtime metrics layer — counters, gauges
// and fixed-bucket histograms — built entirely on the standard library. A
// run's windows, pauses and run span are not here: they are the run log's
// (internal/explain), read back as its timeline.
//
// The paper's headline claim is responsiveness — the distribution of
// inter-update waiting times in Table II — so the subsystem is designed to
// make exactly that kind of statistic cheap to observe on a live system:
// the store publishes per-query rows-examined and modeled-latency
// histograms, the executor publishes the inter-update gap histogram and
// window-queue depth, and the session layer counts analyst-visible updates.
//
// Design constraints, in priority order:
//
//  1. A disabled registry must be near-free. Every instrument method is
//     defined on a nil-safe pointer receiver: code instruments itself
//     unconditionally and a nil *Registry hands out nil instruments whose
//     methods compile to a pointer test. The simulated-clock experiments
//     therefore run bit-identically with telemetry off.
//  2. The hot path takes no locks. Counters, gauges, and histogram buckets
//     are sync/atomic words; registration (name -> instrument) is the only
//     mutex-protected path and happens once per metric at wiring time.
//  3. Exposition is pull-based: Snapshot (JSON-friendly), Prometheus text
//     (WritePrometheus), and an optional net/http handler (see http.go).
package telemetry

import (
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil *Counter is a no-op (the disabled-registry fast path).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value that can move both ways. A nil *Gauge is a
// no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by delta (either sign).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets chosen at creation.
// Buckets are cumulative-upper-bound style (Prometheus "le"): bounds[i] is
// the inclusive upper edge of bucket i, with an implicit +Inf bucket last.
// Observe is lock-free: a bucket increment plus count/sum updates, all
// atomic. A nil *Histogram is a no-op.
type Histogram struct {
	bounds  []float64 // ascending upper edges; implicit +Inf after the last
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, updated by CAS
}

func newHistogram(bounds []float64) *Histogram {
	// Sanitize caller-supplied bounds instead of trusting (or panicking
	// on) them: NaN never compares true so it would swallow observations,
	// +Inf duplicates the implicit overflow bucket, and duplicates waste
	// buckets that can never count. Empty bounds degrade to a single
	// overflow bucket — a counter-shaped histogram, not a panic.
	bs := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if !math.IsNaN(b) && !math.IsInf(b, 1) {
			bs = append(bs, b)
		}
	}
	sort.Float64s(bs)
	uniq := bs[:0]
	for i, b := range bs {
		if i == 0 || b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	bs = uniq
	return &Histogram{
		bounds:  bs,
		buckets: make([]atomic.Int64, len(bs)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~20) and the branch predictor
	// does better here than binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot copies the histogram state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  append([]float64(nil), h.bounds...),
		Buckets: make([]int64, len(h.buckets)),
		Count:   h.count.Load(),
		Sum:     h.Sum(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Registry is the root of the subsystem: a namespace of instruments.
// Instruments are created on first use (get-or-create by name) and live for
// the registry's lifetime. A nil *Registry hands out nil instruments, so
// instrumented code needs no enabled check.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	// insertion order per kind, for stable exposition
	order map[string]int
	next  int
	// debug holds extra HTTP endpoints mounted by Handler (RegisterDebug).
	debug map[string]http.Handler
	// hooks run before every Snapshot/WritePrometheus, outside r.mu, so
	// scrape-time collectors (Go runtime stats) can refresh instruments.
	hooks []func()
}

// AddScrapeHook registers f to run at the start of every Snapshot and
// WritePrometheus call, before the registry locks. Hooks refresh
// scrape-time instruments (e.g. Go runtime gauges) and may therefore call
// Counter/Gauge/Histogram methods freely. No-op on a nil registry.
func (r *Registry) AddScrapeHook(f func()) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, f)
}

// runScrapeHooks invokes the registered hooks without holding r.mu.
func (r *Registry) runScrapeHooks() {
	if r == nil {
		return
	}
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	for _, f := range hooks {
		f()
	}
}

// NewRegistry returns an enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		order:      make(map[string]int),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil (a valid no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.note(name)
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.note(name)
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds on first use. Later calls ignore bounds;
// the first registration wins (bounds are part of the metric's identity).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
		r.note(name)
	}
	return h
}

// note records registration order for stable exposition.
func (r *Registry) note(name string) {
	if _, ok := r.order[name]; !ok {
		r.order[name] = r.next
		r.next++
	}
}

// HistogramSnapshot is the frozen state of one histogram. Buckets has one
// entry per bound plus the final +Inf overflow bucket; entries are
// per-bucket (non-cumulative) counts.
type HistogramSnapshot struct {
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
}

// Quantile estimates the q-quantile (0..1) from the bucket counts by linear
// interpolation inside the target bucket — the same estimate a Prometheus
// histogram_quantile gives. Returns 0 on an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := int64(0)
	for i, c := range s.Buckets {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: report its lower edge, the best defensible value.
			return lo
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Snapshot is a consistent point-in-time copy of every instrument, shaped
// for JSON encoding (the /debug/telemetry endpoint and end-of-run dumps).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies all instruments. On a nil registry it returns an empty
// (but non-nil-map) snapshot so callers can encode it unconditionally.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.runScrapeHooks()
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// sortedNames returns registered names of one kind in registration order.
func sortedNames[T any](m map[string]T, order map[string]int) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	return names
}
