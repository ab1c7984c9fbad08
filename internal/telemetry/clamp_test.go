package telemetry

import (
	"math"
	"strings"
	"testing"
)

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
