package store

import (
	"math/rand"
	"reflect"
	"testing"

	"aptrace/internal/event"
	"aptrace/internal/qprof"
)

// naiveWindow is the reference query: a full scan of the event log filtered
// by endpoint and half-open window, in log order.
func naiveWindow(s *Store, obj event.ObjID, forward bool, from, to int64) []event.Event {
	var out []event.Event
	for i := 0; i < s.NumEvents(); i++ {
		e := s.EventAt(i)
		end := e.Dst()
		if forward {
			end = e.Src()
		}
		if end == obj && e.Time >= from && e.Time < to {
			out = append(out, e)
		}
	}
	return out
}

// TestAppendQueryMatchesNaiveScan is the differential property test for the
// SoA query path: randomized objects and windows (plus empty, single-bucket,
// and full-range windows), in both directions, against a naive reference
// scan — asserting identical rows and identical charged Stats deltas.
func TestAppendQueryMatchesNaiveScan(t *testing.T) {
	s := buildRandom(t, 8000, 7)
	rng := rand.New(rand.NewSource(13))
	buf := make([]event.Event, 0, 64) // reused across trials, like a run would

	for trial := 0; trial < 400; trial++ {
		obj := event.ObjID(rng.Intn(s.NumObjects()))
		var from, to int64
		switch trial % 4 {
		case 0: // random window
			from = rng.Int63n(1_000_000)
			to = from + rng.Int63n(1_000_000-from+1)
		case 1: // empty window
			from = rng.Int63n(1_000_000)
			to = from
		case 2: // single-bucket window
			from = rng.Int63n(1_000_000)
			to = from + rng.Int63n(DefaultBucketSeconds)
		case 3: // full range
			from, to = 0, 1_000_001
		}
		forward := trial%2 == 1

		want := naiveWindow(s, obj, forward, from, to)
		wantBuckets := int64(0)
		if to > from {
			wantBuckets = (to-from)/DefaultBucketSeconds + 1
		}

		check := func(name string, got []event.Event, before, after Stats) {
			t.Helper()
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s(%d, [%d,%d) fwd=%v): got %d rows, want %d", name, obj, from, to, forward, len(got), len(want))
			}
			if d := after.Queries - before.Queries; d != 1 {
				t.Fatalf("%s: charged %d queries, want 1", name, d)
			}
			if d := after.RowsExamined - before.RowsExamined; d != int64(len(want)) {
				t.Fatalf("%s: charged %d rows, want %d", name, d, len(want))
			}
			if d := after.BucketsPruned - before.BucketsPruned; d != wantBuckets {
				t.Fatalf("%s: charged %d buckets, want %d", name, d, wantBuckets)
			}
		}

		appendQ := s.AppendBackward
		if forward {
			appendQ = s.AppendForward
		}

		before := s.Stats()
		got, err := appendQ(nil, obj, from, to)
		if err != nil {
			t.Fatal(err)
		}
		check("Append(nil)", got, before, s.Stats())

		before = s.Stats()
		buf2, err := appendQ(buf[:0], obj, from, to)
		if err != nil {
			t.Fatal(err)
		}
		check("Append", buf2, before, s.Stats())
		buf = buf2

		// Appending after existing content must preserve the prefix.
		prefix := []event.Event{{ID: 999999, Time: -1}}
		full, err := appendQ(prefix, obj, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if full[0].ID != 999999 || !reflect.DeepEqual(full[1:], buf2) {
			t.Fatalf("append did not preserve the caller's prefix")
		}
	}
}

// TestAppendReusesCapacity pins the zero-allocation contract of the query
// path for one part and for several: once the buffer has grown to the hot
// window's size, repeated queries — append, count and every attribute walk —
// must not allocate, however many runs the probe collects.
func TestAppendReusesCapacity(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := buildRandom(t, 20_000, 11, WithShards(shards))
		// The busiest object overall, and the busiest file and process for
		// the walks whose type guard would otherwise return before any row.
		var hot, hotFile, hotProc event.ObjID
		most, mostFile, mostProc := -1, -1, -1
		for id := event.ObjID(0); int(id) < s.NumObjects(); id++ {
			d := s.InDegree(id)
			if d > most {
				hot, most = id, d
			}
			if s.Object(id).Type == event.ObjFile && d > mostFile {
				hotFile, mostFile = id, d
			}
			if s.Object(id).Type == event.ObjProcess && d > mostProc {
				hotProc, mostProc = id, d
			}
		}
		// A window under the scatter cutoff even for FileTimes, which walks
		// both endpoint indexes: a timed scatter starts goroutines and is
		// allowed to allocate, an inline probe is not.
		const to = 600_000
		if shards > 1 {
			// The zero must hold for probes that really merge runs.
			for _, obj := range []event.ObjID{hot, hotFile, hotProc} {
				in, _ := s.CountBackward(obj, 0, to)
				out, _ := s.CountForward(obj, 0, to)
				runs, _, _ := s.collect(nil, obj, false, 0, to)
				if len(runs) < 2 || in+out >= shardScatterCutoff {
					t.Fatalf("shards=%d: object %d's window (%d runs, %d rows) is not an inline multi-run probe",
						shards, obj, len(runs), in+out)
				}
			}
		}
		// The contract holds with nobody listening and on the profiled path:
		// a view builds its samples in its batch, with and without a scatter
		// observer, which is handed the batch's row split. (A root store
		// borrows a pooled batch per query; the race detector makes pools
		// lossy on purpose, so no zero is asserted there.)
		profiled, err := s.View(nil)
		if err != nil {
			t.Fatal(err)
		}
		profiled.SetQueryProfiler(qprof.New())
		observed, err := s.View(nil)
		if err != nil {
			t.Fatal(err)
		}
		observed.SetQueryProfiler(qprof.New())
		observed.SetScatterObserver(func(int, []int64) {})
		for _, sub := range []struct {
			name string
			s    *Store
		}{{"unobserved", s}, {"profiled view", profiled}, {"profiled+scatter view", observed}} {
			s := sub.s
			buf, err := s.AppendBackward(nil, hot, 0, to)
			if err != nil {
				t.Fatal(err)
			}
			calls := []struct {
				name string
				call func() error
			}{
				{"AppendBackward", func() (err error) { buf, err = s.AppendBackward(buf[:0], hot, 0, to); return }},
				{"CountBackward", func() (err error) { _, err = s.CountBackward(hot, 0, to); return }},
				{"IsReadOnlyFile", func() (err error) { _, err = s.IsReadOnlyFile(hotFile, 0, to); return }},
				{"IsWriteThrough", func() (err error) { _, err = s.IsWriteThrough(hotProc, 0, to); return }},
				{"FileTimes", func() (err error) { _, _, _, err = s.FileTimes(hotFile, 0, to); return }},
			}
			for _, c := range calls {
				// Past the first full batch the view's buffers, the
				// profiler's recent ring and the heat of these objects have
				// their final size.
				for i := 0; i < 2*sampleBatchLen; i++ {
					if err := c.call(); err != nil {
						t.Fatal(err)
					}
				}
				allocs := testing.AllocsPerRun(2*sampleBatchLen, func() {
					if err := c.call(); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("shards=%d, %s: steady-state %s allocates %.1f times per call, want 0", shards, sub.name, c.name, allocs)
				}
			}
		}
	}
}

// TestRandomEventsMatchesPermPrefix proves the bounded partial Fisher–Yates
// consumes the same random stream as rng.Perm and selects the same prefix.
func TestRandomEventsMatchesPermPrefix(t *testing.T) {
	s := buildRandom(t, 500, 3)
	for _, n := range []int{0, 1, 7, 100, 499} {
		got := s.RandomEvents(n, rand.New(rand.NewSource(42)))
		perm := rand.New(rand.NewSource(42)).Perm(s.NumEvents())[:n]
		if len(got) != n {
			t.Fatalf("n=%d: got %d events", n, len(got))
		}
		for i, p := range perm {
			if got[i] != s.EventAt(p) {
				t.Fatalf("n=%d: sample %d = event at %d, want log position %d", n, i, got[i].ID, p)
			}
		}
	}
}

// TestRandomEventsPinnedSequence pins the exact sampled log positions for a
// fixed seed: experiment event selection must never shift across revisions.
func TestRandomEventsPinnedSequence(t *testing.T) {
	s := buildRandom(t, 500, 3)
	got := s.RandomEvents(8, rand.New(rand.NewSource(42)))
	wantPos := []int{459, 5, 99, 94, 68, 17, 312, 291}
	for i, p := range wantPos {
		if got[i] != s.EventAt(p) {
			t.Fatalf("sample %d: got event ID %d, want the event at log position %d (ID %d)",
				i, got[i].ID, p, s.EventAt(p).ID)
		}
	}
}

// BenchmarkQueryBackwardAppend measures the steady-state window query loop:
// it must run allocation-free.
func BenchmarkQueryBackwardAppend(b *testing.B) {
	s := buildRandom(b, 100_000, 11)
	var hot event.ObjID
	for id := event.ObjID(0); int(id) < s.NumObjects(); id++ {
		if s.InDegree(id) > s.InDegree(hot) {
			hot = id
		}
	}
	var buf []event.Event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = s.AppendBackward(buf[:0], hot, 400_000, 600_000)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPostingRangeSoA isolates the posting-range binary search on the
// contiguous time column (CountBackward is range-resolution only: no
// materialization, no charge).
func BenchmarkPostingRangeSoA(b *testing.B) {
	s := buildRandom(b, 100_000, 11)
	var hot event.ObjID
	for id := event.ObjID(0); int(id) < s.NumObjects(); id++ {
		if s.InDegree(id) > s.InDegree(hot) {
			hot = id
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.CountBackward(hot, 400_000, 600_000); err != nil {
			b.Fatal(err)
		}
	}
}
