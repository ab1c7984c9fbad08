package qprof

import (
	"testing"
)

func sampleSeq() []Sample {
	return []Sample{
		{Kind: KindBackward, Fanout: 2, Rows: 10, BusyNs: 300, SavableNs: 100},
		{Kind: KindBackward, Fanout: 2, Rows: 8},
		{Kind: KindCountForward, Fanout: 1, Rows: 3},
		{Kind: KindScan, Fanout: 3, Rows: 30, MergeNs: 50},
	}
}

func TestAggregates(t *testing.T) {
	p := New()
	for _, s := range sampleSeq() {
		p.Observe(s)
	}
	if p.queries != 4 || p.scattered != 3 {
		t.Fatalf("queries=%d scattered=%d, want 4/3", p.queries, p.scattered)
	}
	if p.rows != 51 || p.fanoutSum != 8 {
		t.Fatalf("rows=%d fanout=%d, want 51/8", p.rows, p.fanoutSum)
	}
	if p.busyNs != 300 || p.savableNs != 100 || p.mergeNs != 50 {
		t.Fatalf("busy/savable/merge = %d/%d/%d, want 300/100/50", p.busyNs, p.savableNs, p.mergeNs)
	}
	// Per-kind: backward twice, count_forward once, scan once.
	for _, c := range []struct {
		k             Kind
		queries, rows int64
	}{{KindBackward, 2, 18}, {KindCountForward, 1, 3}, {KindScan, 1, 30}, {KindForward, 0, 0}} {
		if a := p.byKind[c.k]; a.queries != c.queries || a.rows != c.rows {
			t.Fatalf("kind %d: %+v, want %d queries and %d rows", c.k, a, c.queries, c.rows)
		}
	}
}

// TestSnapshotDeterminism feeds the same sequence to a profiler sample by
// sample and to one through aggregates of two: their totals must be equal,
// and the drained aggregates empty.
func TestSnapshotDeterminism(t *testing.T) {
	a, b := New(), New()
	for _, s := range sampleSeq() {
		a.Observe(s)
	}
	var agg Aggregate
	for i, s := range sampleSeq() {
		if agg.Add(&s) == 2 || i == len(sampleSeq())-1 {
			b.Fold(&agg)
		}
	}
	if a.totals != b.totals {
		t.Fatalf("totals diverge:\n%+v\n%+v", a.totals, b.totals)
	}
	if agg.totals != (totals{}) {
		t.Fatalf("fold left %+v in the aggregate", agg.totals)
	}
}

func TestNilProfilerSafe(t *testing.T) {
	var p *Profiler
	p.Observe(Sample{Kind: KindScan, Rows: 5})
	var agg Aggregate
	agg.Add(&Sample{Kind: KindScan, Rows: 5})
	p.Fold(&agg) // must not panic
}

// BenchmarkNilObserve measures the disabled-profiler cost a store query pays:
// it must stay within a few nanoseconds.
func BenchmarkNilObserve(b *testing.B) {
	var p *Profiler
	s := Sample{Kind: KindBackward, Fanout: 2, Rows: 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Observe(s)
	}
}

func BenchmarkObserve(b *testing.B) {
	p := New()
	s := Sample{Kind: KindBackward, Fanout: 2, Rows: 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Observe(s)
	}
}
