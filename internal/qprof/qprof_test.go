package qprof

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
)

func sampleSeq() []Sample {
	return []Sample{
		{Kind: KindBackward, Obj: 7, Fanout: 2, Rows: 10, PostingLen: 12,
			Shards: []ShardSample{{Shard: 0, Rows: 6}, {Shard: 2, Rows: 4}}},
		{Kind: KindBackward, Obj: 7, Fanout: 2, Rows: 8,
			Shards: []ShardSample{{Shard: 0, Rows: 8}, {Shard: 2, Rows: 0}}},
		{Kind: KindCountForward, Obj: 9, Fanout: 1, Rows: 3,
			Shards: []ShardSample{{Shard: 1, Rows: 3}}},
		{Kind: KindScan, Obj: -1, Fanout: 3, Rows: 30,
			Shards: []ShardSample{{Shard: 0, Rows: 10}, {Shard: 1, Rows: 10}, {Shard: 2, Rows: 10}}},
	}
}

func TestAggregates(t *testing.T) {
	p := New()
	p.SetLayout(4, 86400)
	for _, s := range sampleSeq() {
		p.Observe(s)
	}
	sn := p.Snapshot()
	if sn.Queries != 4 || sn.Scattered != 3 {
		t.Fatalf("queries=%d scattered=%d, want 4/3", sn.Queries, sn.Scattered)
	}
	if sn.Rows != 51 {
		t.Fatalf("rows=%d, want 51", sn.Rows)
	}
	if sn.ShardCount != 4 || sn.EpochSeconds != 86400 {
		t.Fatalf("layout %d/%d", sn.ShardCount, sn.EpochSeconds)
	}
	if want := (2 + 2 + 1 + 3) / 4.0; sn.MeanFanout != want {
		t.Fatalf("mean fanout %v, want %v", sn.MeanFanout, want)
	}
	// Per-kind: backward twice, count_forward once, scan once.
	kinds := map[string]KindStat{}
	for _, k := range sn.Kinds {
		kinds[k.Kind] = k
	}
	if kinds["backward"].Queries != 2 || kinds["backward"].Rows != 18 {
		t.Fatalf("backward agg %+v", kinds["backward"])
	}
	if kinds["scan"].Queries != 1 || kinds["scan"].Rows != 30 {
		t.Fatalf("scan agg %+v", kinds["scan"])
	}
	if kinds["count_forward"].Queries != 1 || kinds["count_forward"].Rows != 3 {
		t.Fatalf("count_forward agg %+v", kinds["count_forward"])
	}
	// Three scattered samples; the first two are 6:4 and 8:0 by rows, the
	// scan is even.
	if sn.SkewP50 != 1.2 || sn.SkewMax != 2 {
		t.Fatalf("skew p50/max = %v/%v, want 1.2/2", sn.SkewP50, sn.SkewMax)
	}
}

func TestSkew(t *testing.T) {
	// Rows fallback: shards {6,4} of fanout 2 → mean 5, max 6 → 1.2.
	s := Sample{Fanout: 2, Shards: []ShardSample{{Shard: 0, Rows: 6}, {Shard: 1, Rows: 4}}}
	if got := s.Skew(); got != 1.2 {
		t.Fatalf("rows skew=%v, want 1.2", got)
	}
	// Busy-ns dominates when present.
	s.Shards[0].BusyNs = 300
	s.Shards[1].BusyNs = 100
	if got := s.Skew(); got != 1.5 {
		t.Fatalf("busy skew=%v, want 1.5", got)
	}
	// Single shard: no skew.
	one := Sample{Fanout: 1, Shards: []ShardSample{{Shard: 0, Rows: 9}}}
	if got := one.Skew(); got != 0 {
		t.Fatalf("single-shard skew=%v, want 0", got)
	}

	p := New()
	for i := 0; i < 10; i++ {
		p.Observe(Sample{Fanout: 2, Rows: 10,
			Shards: []ShardSample{{Shard: 0, Rows: 6}, {Shard: 1, Rows: 4}}})
	}
	if q := p.Snapshot().SkewP50; q != 1.2 {
		t.Fatalf("p50 skew=%v, want 1.2", q)
	}
}

// TestSnapshotDeterminism feeds two profilers the same sequence and requires
// identical snapshots and recent rings (timing fields are zero here, so full
// equality).
func TestSnapshotDeterminism(t *testing.T) {
	a, b := New(), New()
	for _, s := range sampleSeq() {
		a.Observe(s)
	}
	for _, s := range sampleSeq() {
		b.Observe(s)
	}
	if sa, sb := a.Snapshot(), b.Snapshot(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("snapshots diverge:\n%+v\n%+v", sa, sb)
	}
	if ra, rb := a.Recent(), b.Recent(); !reflect.DeepEqual(ra, rb) || !reflect.DeepEqual(ra, sampleSeq()) {
		t.Fatalf("recent rings diverge:\n%+v\n%+v", ra, rb)
	}
}

func TestNilProfilerSafe(t *testing.T) {
	var p *Profiler
	p.Observe(Sample{Kind: KindScan, Rows: 5})
	p.SetLayout(4, 60)
	if p.Recent() != nil {
		t.Fatal("nil profiler leaked state")
	}
	sn := p.Snapshot()
	if sn.Queries != 0 {
		t.Fatal("nil snapshot not zero")
	}
	var buf bytes.Buffer
	p.WriteSummary(&buf) // must not panic
}

func TestHandlerJSON(t *testing.T) {
	p := New()
	p.SetLayout(2, 3600)
	for _, s := range sampleSeq() {
		p.Observe(s)
	}
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/shards", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var sn Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &sn); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if sn.Queries != 4 || len(sn.Kinds) != 3 {
		t.Fatalf("decoded %+v", sn)
	}
}

func TestRecentRing(t *testing.T) {
	p := New()
	for i := 0; i < recentRingCap+5; i++ {
		p.Observe(Sample{Kind: KindForward, Obj: int64(i), Fanout: 1, Rows: 1})
	}
	rec := p.Recent()
	if len(rec) != recentRingCap {
		t.Fatalf("recent len=%d", len(rec))
	}
	if rec[len(rec)-1].Obj != int64(recentRingCap+4) {
		t.Fatalf("newest obj=%d", rec[len(rec)-1].Obj)
	}
}

func TestWriteBreakdown(t *testing.T) {
	p := New()
	for _, s := range sampleSeq() {
		p.Observe(s)
	}
	var buf bytes.Buffer
	p.WriteBreakdown(&buf)
	out := buf.String()
	for _, want := range []string{"query profile:", "backward", "recent queries"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("breakdown missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkNilObserve measures the disabled-profiler cost a store query pays:
// it must stay within a few nanoseconds.
func BenchmarkNilObserve(b *testing.B) {
	var p *Profiler
	s := Sample{Kind: KindBackward, Obj: 1, Fanout: 2, Rows: 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Observe(s)
	}
}

func BenchmarkObserve(b *testing.B) {
	p := New()
	s := Sample{Kind: KindBackward, Obj: 1, Fanout: 2, Rows: 10,
		Shards: []ShardSample{{Shard: 0, Rows: 6}, {Shard: 1, Rows: 4}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Observe(s)
	}
}
