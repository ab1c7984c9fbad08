package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestCounterAddIgnoresNonPositive(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mono_total")
	c.Add(5)
	c.Add(0)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5 (non-positive deltas ignored)", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("same name must return the same counter")
	}
	if r.Gauge("y") != r.Gauge("y") {
		t.Fatal("same name must return the same gauge")
	}
	h1 := r.Histogram("z", []float64{1, 2})
	h2 := r.Histogram("z", []float64{99}) // later bounds ignored
	if h1 != h2 {
		t.Fatal("same name must return the same histogram")
	}
	if len(h1.bounds) != 2 {
		t.Fatalf("first registration's bounds must win, got %v", h1.bounds)
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	g := r.Gauge("b")
	h := r.Histogram("c", []float64{1})
	// All no-ops; must not panic.
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(-1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	snap := r.Snapshot()
	if snap.Counters == nil || snap.Gauges == nil || snap.Histograms == nil {
		t.Fatal("nil registry snapshot must have non-nil maps")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4})
	// le-semantics: a value equal to a bound lands in that bound's bucket.
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 3.9, 4.0, 4.1, 100} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []int64{2, 2, 2, 2} // (-inf,1], (1,2], (2,4], (4,+inf)
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (buckets %v)", i, s.Buckets[i], w, s.Buckets)
		}
	}
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	if wantSum := 0.5 + 1 + 1.5 + 2 + 3.9 + 4 + 4.1 + 100; math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
}

func TestHistogramUnsortedBoundsAreSorted(t *testing.T) {
	h := newHistogram([]float64{4, 1, 2})
	h.Observe(1.5)
	s := h.snapshot()
	if s.Bounds[0] != 1 || s.Bounds[1] != 2 || s.Bounds[2] != 4 {
		t.Fatalf("bounds not sorted: %v", s.Bounds)
	}
	if s.Buckets[1] != 1 {
		t.Fatalf("1.5 must land in (1,2], got %v", s.Buckets)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc", []float64{10, 20, 30})
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				h.Observe(float64((seed + j) % 40)) // deterministic spread
			}
		}(i)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	s := h.snapshot()
	var total int64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

func TestSnapshotConsistencyUnderLoad(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("load_total")
	h := r.Histogram("load_hist", []float64{1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(0.5)
				}
			}
		}()
	}
	// Snapshots taken during writes must be internally sane (monotone
	// counters, non-negative buckets); the race detector verifies memory
	// safety of concurrent snapshot + observe.
	var last int64
	for i := 0; i < 100; i++ {
		s := r.Snapshot()
		v := s.Counters["load_total"]
		if v < last {
			t.Fatalf("counter snapshot went backwards: %d -> %d", last, v)
		}
		last = v
		for _, b := range s.Histograms["load_hist"].Buckets {
			if b < 0 {
				t.Fatalf("negative bucket count %d", b)
			}
		}
	}
	close(stop)
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["load_total"] != c.Value() {
		t.Fatalf("final snapshot %d != counter %d", s.Counters["load_total"], c.Value())
	}
	hs := s.Histograms["load_hist"]
	if hs.Count != h.Count() {
		t.Fatal("final histogram snapshot count mismatch")
	}
	var total int64
	for _, b := range hs.Buckets {
		total += b
	}
	if total != hs.Count {
		t.Fatalf("quiesced bucket total %d != count %d", total, hs.Count)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []float64{1, 2, 3, 4})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%4) + 0.5) // 25 each in (0,1], (1,2], (2,3], (3,4]
	}
	s := h.snapshot()
	if got := s.Quantile(0.5); got < 1.5 || got > 2.5 {
		t.Fatalf("p50 = %g, want ~2", got)
	}
	if got := s.Quantile(1.0); got < 3.5 || got > 4 {
		t.Fatalf("p100 = %g, want ~4", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}
}

// BenchmarkCounterInc is the acceptance benchmark: an enabled counter must
// stay within ~25 ns/op.
func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkCounterIncDisabled measures the nil-registry fast path, which
// must cost at most a few ns/op so telemetry-off runs are unperturbed.
func BenchmarkCounterIncDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_hist", LatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 100))
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var r *Registry
	h := r.Histogram("bench_hist", LatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 100))
	}
}
