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
		{Kind: KindBackward, Obj: 7, Epoch: 3, Fanout: 2, Rows: 10, PostingLen: 12,
			Shards: []ShardSample{{Shard: 0, Rows: 6}, {Shard: 2, Rows: 4}}},
		{Kind: KindBackward, Obj: 7, Epoch: 3, Fanout: 2, Rows: 8,
			Shards: []ShardSample{{Shard: 0, Rows: 8}, {Shard: 2, Rows: 0}}},
		{Kind: KindCountForward, Obj: 9, Epoch: 4, Fanout: 1, Rows: 3,
			Shards: []ShardSample{{Shard: 1, Rows: 3}}},
		{Kind: KindScan, Obj: -1, Epoch: 3, Fanout: 3, Rows: 30,
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
	// Shard 0 saw samples 1, 2, 4: accesses 3, rows 6+8+10.
	if len(sn.Shards) != 3 {
		t.Fatalf("shards=%d, want 3", len(sn.Shards))
	}
	s0 := sn.Shards[0]
	if s0.Shard != 0 || s0.Accesses != 3 || s0.Rows != 24 {
		t.Fatalf("shard0 %+v", s0)
	}
	// Hot objects: shard 0 object 7 walked 14 rows over 2 queries.
	if len(s0.Hottest) == 0 || s0.Hottest[0].Obj != 7 || s0.Hottest[0].Rows != 14 {
		t.Fatalf("shard0 hottest %+v", s0.Hottest)
	}
	// Cells: shard 0 epoch 3 has all three shard-0 accesses.
	found := false
	for _, c := range sn.Cells {
		if c.Shard == 0 && c.Epoch == 3 {
			found = true
			if c.Accesses != 3 || c.Rows != 24 {
				t.Fatalf("cell %+v", c)
			}
		}
	}
	if !found {
		t.Fatal("missing cell (0,3)")
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

// TestHeatmapDeterminism feeds two profilers the same sequence and requires
// identical snapshots (timing fields are zero here, so full equality).
func TestHeatmapDeterminism(t *testing.T) {
	a, b := New(), New()
	for _, s := range sampleSeq() {
		a.Observe(s)
	}
	for _, s := range sampleSeq() {
		b.Observe(s)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("snapshots diverge:\n%+v\n%+v", sa, sb)
	}
}

func TestHotPruneDeterminism(t *testing.T) {
	feed := func(p *Profiler) {
		for obj := int64(0); obj < hotCap+100; obj++ {
			p.Observe(Sample{Kind: KindBackward, Obj: obj, Fanout: 1, Rows: obj % 97,
				Shards: []ShardSample{{Shard: 0, Rows: obj % 97}}})
		}
	}
	a, b := New(), New()
	feed(a)
	feed(b)
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatal("hot-object pruning is not deterministic")
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
	if sn.Queries != 4 || len(sn.Shards) != 3 {
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
	for _, want := range []string{"query profile:", "backward", "shard", "recent queries"} {
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
	s := Sample{Kind: KindBackward, Obj: 1, Epoch: 2, Fanout: 2, Rows: 10,
		Shards: []ShardSample{{Shard: 0, Rows: 6}, {Shard: 1, Rows: 4}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Observe(s)
	}
}
