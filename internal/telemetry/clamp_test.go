package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNewTracerClampsCapacity: non-positive capacities must degrade to a
// one-slot ring, never panic (make with a negative length) or hand back an
// unusable tracer.
func TestNewTracerClampsCapacity(t *testing.T) {
	for _, capacity := range []int{-100, -1, 0, 1} {
		tr := NewTracer(capacity)
		sp := tr.Start("probe", nil)
		sp.End()
		if got := tr.Len(); got != 1 {
			t.Errorf("NewTracer(%d): ring holds %d after one span, want 1", capacity, got)
		}
		// A second span must overwrite, not grow.
		tr.Start("probe2", nil).End()
		if capacity <= 1 && tr.Len() != 1 {
			t.Errorf("NewTracer(%d): ring grew beyond its clamp", capacity)
		}
	}
}

// TestHistogramDegenerateBounds: caller-supplied bounds are sanitized —
// NaN and +Inf dropped, duplicates collapsed, unsorted input sorted, and
// empty input degrading to a single overflow bucket — instead of producing
// buckets that can never count (NaN comparisons are always false) or
// panicking downstream.
func TestHistogramDegenerateBounds(t *testing.T) {
	cases := []struct {
		name       string
		in         []float64
		wantBounds []float64
	}{
		{"empty", nil, []float64{}},
		{"all NaN", []float64{math.NaN(), math.NaN()}, []float64{}},
		{"NaN mixed in", []float64{1, math.NaN(), 2}, []float64{1, 2}},
		{"+Inf dropped", []float64{1, math.Inf(1)}, []float64{1}},
		{"-Inf kept (only +Inf duplicates the overflow bucket)", []float64{math.Inf(-1), 1}, []float64{math.Inf(-1), 1}},
		{"duplicates collapsed", []float64{1, 1, 2, 2, 2}, []float64{1, 2}},
		{"unsorted", []float64{4, 1, 2}, []float64{1, 2, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHistogram(tc.in)
			h.Observe(1.5)
			h.Observe(100)
			s := h.snapshot()
			if len(s.Bounds) != len(tc.wantBounds) {
				t.Fatalf("bounds = %v, want %v", s.Bounds, tc.wantBounds)
			}
			for i, b := range tc.wantBounds {
				if s.Bounds[i] != b {
					t.Fatalf("bounds = %v, want %v", s.Bounds, tc.wantBounds)
				}
			}
			if len(s.Buckets) != len(s.Bounds)+1 {
				t.Fatalf("%d buckets for %d bounds", len(s.Buckets), len(s.Bounds))
			}
			if s.Count != 2 {
				t.Fatalf("count = %d, want 2 — sanitized buckets must still count", s.Count)
			}
			var total int64
			for _, c := range s.Buckets {
				total += c
			}
			if total != 2 {
				t.Fatalf("bucket total = %d, want 2 (no observation may vanish)", total)
			}
		})
	}
}

// TestHistogramDegenerateBoundsExposition: a sanitized histogram still
// renders valid Prometheus exposition (one +Inf bucket minimum).
func TestHistogramDegenerateBoundsExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("degenerate_seconds", []float64{math.NaN(), math.Inf(1)})
	h.Observe(3)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`degenerate_seconds_bucket{le="+Inf"} 1`,
		"degenerate_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestTracerRingWraparoundTable drives rings of several capacities past
// their wrap point and checks the survivors are exactly the most recent
// spans, oldest-first.
func TestTracerRingWraparoundTable(t *testing.T) {
	base := time.Unix(0, 0)
	cases := []struct {
		capacity, emitted, wantLen, wantFirst int
	}{
		{1, 5, 1, 4},
		{3, 3, 3, 0},  // exactly full, no wrap
		{3, 4, 3, 1},  // wraps by one
		{4, 10, 4, 6}, // wraps repeatedly
		{8, 2, 2, 0},  // under capacity
	}
	for _, tc := range cases {
		tr := NewTracer(tc.capacity)
		for i := 0; i < tc.emitted; i++ {
			sp := tr.StartAt("s", nil, base.Add(time.Duration(i)*time.Second))
			sp.EndAt(base.Add(time.Duration(i) * time.Second))
		}
		spans := tr.Spans()
		if len(spans) != tc.wantLen {
			t.Errorf("cap %d emit %d: len = %d, want %d", tc.capacity, tc.emitted, len(spans), tc.wantLen)
			continue
		}
		for i, sp := range spans {
			if want := base.Add(time.Duration(tc.wantFirst+i) * time.Second); !sp.Start.Equal(want) {
				t.Errorf("cap %d emit %d: span %d starts %v, want %v", tc.capacity, tc.emitted, i, sp.Start, want)
			}
		}
	}
}

// TestTracerConcurrentWriters: writers on every core share the ring with a
// reader (run it under -race). No record is torn — each span's arg still
// equals its duration — and once the writers stop the ring holds exactly its
// capacity of distinct spans.
func TestTracerConcurrentWriters(t *testing.T) {
	const capacity, writers, each = 64, 4, 2000
	tr := NewTracer(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				r := SpanRecord{Name: "w", Duration: time.Duration(w*each + i)}
				tr.Emit(&r, SpanArg{Key: "d", Val: int64(r.Duration)})
			}
		}()
	}
	check := func(spans []SpanRecord) {
		seen := make(map[uint64]bool)
		for _, s := range spans {
			if len(s.Args) != 1 || s.Args[0].Val != int64(s.Duration) || seen[s.ID] {
				t.Fatalf("torn or repeated span %+v", s)
			}
			seen[s.ID] = true
		}
	}
	for i := 0; i < 50; i++ {
		check(tr.Spans())
	}
	wg.Wait()
	spans := tr.Spans()
	if len(spans) != capacity || tr.Len() != capacity {
		t.Fatalf("after %d spans: Spans() holds %d, Len() %d, want %d", writers*each, len(spans), tr.Len(), capacity)
	}
	check(spans)
}

// TestTracerSetNowTable injects several clock behaviours — fixed, stepping,
// and re-injected mid-stream — and checks span timestamps follow the
// injected source, not the wall clock.
func TestTracerSetNowTable(t *testing.T) {
	t0 := time.Date(2019, 3, 2, 14, 0, 0, 0, time.UTC)

	t.Run("fixed", func(t *testing.T) {
		tr := NewTracer(4)
		tr.SetNow(func() time.Time { return t0 })
		sp := tr.Start("x", nil)
		sp.End()
		s := tr.Spans()[0]
		if !s.Start.Equal(t0) || s.Duration != 0 {
			t.Fatalf("fixed clock span = %+v", s)
		}
	})

	t.Run("stepping", func(t *testing.T) {
		tr := NewTracer(4)
		now := t0
		tr.SetNow(func() time.Time {
			now = now.Add(time.Second)
			return now
		})
		sp := tr.Start("x", nil) // reads t0+1s
		sp.End()                 // reads t0+2s
		s := tr.Spans()[0]
		if !s.Start.Equal(t0.Add(time.Second)) || s.Duration != time.Second {
			t.Fatalf("stepping clock span = %+v", s)
		}
	})

	t.Run("reinjected", func(t *testing.T) {
		tr := NewTracer(4)
		tr.SetNow(func() time.Time { return t0 })
		a := tr.Start("a", nil)
		a.End()
		tr.SetNow(func() time.Time { return t0.Add(time.Minute) })
		b := tr.Start("b", nil)
		b.End()
		spans := tr.Spans()
		if !spans[0].Start.Equal(t0) || !spans[1].Start.Equal(t0.Add(time.Minute)) {
			t.Fatalf("reinjection ignored: %+v", spans)
		}
	})

	t.Run("nil fn ignored", func(t *testing.T) {
		tr := NewTracer(1)
		tr.SetNow(func() time.Time { return t0 })
		tr.SetNow(nil) // must keep the previous source, not panic
		sp := tr.Start("x", nil)
		sp.End()
		if !tr.Spans()[0].Start.Equal(t0) {
			t.Fatal("nil SetNow clobbered the clock")
		}
	})
}
