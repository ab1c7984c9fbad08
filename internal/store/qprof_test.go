package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/qprof"
	"aptrace/internal/simclock"
)

// qprofBattery runs every query API against a plain and a profiled copy of
// the same store, requiring identical results, stats deltas, and simulated
// cost — the profiler's zero-graph-effect invariant, checked with
// assertSameCharge exactly like the flat/sharded differential.
func qprofBattery(t *testing.T, evs []genEvent, opts ...Option) *qprof.Profiler {
	t.Helper()
	plainClk := simclock.NewSimulated(time.Time{})
	profClk := simclock.NewSimulated(time.Time{})
	plain := buildWorkload(t, evs, plainClk, opts...)
	prof := buildWorkload(t, evs, profClk, opts...)
	p := qprof.New()
	prof.SetQueryProfiler(p)

	rng := rand.New(rand.NewSource(11))
	minT, maxT, _ := plain.TimeRange()
	randWindow := func() (int64, int64) {
		a := minT + rng.Int63n(maxT-minT+1)
		b := minT + rng.Int63n(maxT-minT+1)
		if a > b {
			a, b = b, a
		}
		return a, b + 1
	}
	numObj := plain.NumObjects()
	for q := 0; q < 120; q++ {
		obj := event.ObjID(rng.Intn(numObj))
		from, to := randWindow()
		label := fmt.Sprintf("q%d obj=%d [%d,%d)", q, obj, from, to)
		assertSameCharge(t, label+" back", plain, prof, plainClk, profClk, func(s *Store) (any, error) {
			return s.AppendBackward(nil, obj, from, to)
		})
		assertSameCharge(t, label+" fwd", plain, prof, plainClk, profClk, func(s *Store) (any, error) {
			return s.AppendForward(nil, obj, from, to)
		})
		assertSameCharge(t, label+" countb", plain, prof, plainClk, profClk, func(s *Store) (any, error) {
			return s.CountBackward(obj, from, to)
		})
		assertSameCharge(t, label+" countf", plain, prof, plainClk, profClk, func(s *Store) (any, error) {
			return s.CountForward(obj, from, to)
		})
		assertSameCharge(t, label+" readonly", plain, prof, plainClk, profClk, func(s *Store) (any, error) {
			ro, rows, err := s.IsReadOnlyFileRows(obj, from, to)
			return []any{ro, rows}, err
		})
		assertSameCharge(t, label+" through", plain, prof, plainClk, profClk, func(s *Store) (any, error) {
			wt, rows, err := s.IsWriteThroughRows(obj, from, to)
			return []any{wt, rows}, err
		})
		assertSameCharge(t, label+" ftimes", plain, prof, plainClk, profClk, func(s *Store) (any, error) {
			c, m, a, rows, err := s.FileTimesRows(obj, from, to)
			return []any{c, m, a, rows}, err
		})
	}
	from, to := randWindow()
	assertSameCharge(t, "scan", plain, prof, plainClk, profClk, func(s *Store) (any, error) {
		var got []event.EventID
		err := s.Scan(from, to, func(e event.Event) bool {
			got = append(got, e.ID)
			return true
		})
		return got, err
	})
	assertSameCharge(t, "collect", plain, prof, plainClk, profClk, func(s *Store) (any, error) {
		return s.CollectMatches(minT, maxT+1, func() func(event.Event) (bool, error) {
			return func(e event.Event) (bool, error) {
				return e.Action == event.ActSend && e.Amount > 100, nil
			}
		})
	})

	// Views inherit the profiler and must stay charge-identical too.
	pv, err := plain.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	fv, err := prof.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	if fv.QueryProfiler() != p {
		t.Fatal("view did not inherit the profiler")
	}
	b1, _ := pv.AppendBackward(nil, 3, minT, maxT)
	b2, _ := fv.AppendBackward(nil, 3, minT, maxT)
	if fmt.Sprintf("%v", b1) != fmt.Sprintf("%v", b2) {
		t.Fatal("view query diverged under profiling")
	}
	if pv.Stats() != fv.Stats() {
		t.Fatalf("view stats diverged: %+v vs %+v", pv.Stats(), fv.Stats())
	}
	return p
}

// TestQprofDifferential is the tentpole's property test: attaching a
// profiler changes nothing observable — results, stats deltas, and the
// simulated clock all advance identically — on a flat store and on
// N ∈ {1, 2, 4, 7} shards, serial and parallel.
func TestQprofDifferential(t *testing.T) {
	for _, procs := range []int{1, 0} {
		procs := procs
		pname := "default"
		if procs > 0 {
			pname = fmt.Sprintf("procs=%d", procs)
		}
		for _, n := range []int{0, 1, 2, 4, 7} {
			n := n
			sname := "flat"
			if n > 0 {
				sname = fmt.Sprintf("shards=%d", n)
			}
			t.Run(sname+"/"+pname, func(t *testing.T) {
				if procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				}
				evs := randomWorkload(300+int64(n), 5, 3000)
				var opts []Option
				if n > 0 {
					opts = []Option{WithShards(n), WithShardEpoch(500)}
				}
				p := qprofBattery(t, evs, opts...)
				snap := p.Snapshot()
				if snap.Queries == 0 || snap.Rows == 0 {
					t.Fatalf("profiler saw nothing: %+v", snap)
				}
				want := 1
				if n > 0 {
					want = n
				}
				if snap.ShardCount != want {
					t.Fatalf("ShardCount = %d, want %d", snap.ShardCount, want)
				}
			})
		}
	}
}

// stripBusy zeroes the real-CPU fields of a snapshot, leaving only what
// identical runs must reproduce exactly (counts and rows; busy nanos are
// wall-clock measurements and legitimately vary run to run).
func stripBusy(s qprof.Snapshot) qprof.Snapshot {
	s.BusyNs, s.SavableNs, s.MergeNs = 0, 0, 0
	s.SkewP50, s.SkewP90, s.SkewMax = 0, 0, 0
	for i := range s.Kinds {
		s.Kinds[i].BusyNs, s.Kinds[i].MergeNs = 0, 0
	}
	return s
}

// stripBusySamples zeroes the real-CPU fields of samples, likewise.
func stripBusySamples(ss []qprof.Sample) []qprof.Sample {
	for i := range ss {
		ss[i].MergeNs, ss[i].BusyNs, ss[i].SavableNs = 0, 0, 0
		for j := range ss[i].Shards {
			ss[i].Shards[j].BusyNs = 0
		}
	}
	return ss
}

// TestQprofHeatmapDeterminism replays the same query sequence against two
// profiled copies of the same sharded store: everything the profiler counts
// (queries and rows, in total and per kind, and the recent samples with
// their per-shard splits) must match exactly.
func TestQprofHeatmapDeterminism(t *testing.T) {
	evs := randomWorkload(77, 5, 3000)
	run := func() (qprof.Snapshot, []qprof.Sample) {
		clk := simclock.NewSimulated(time.Time{})
		s := buildWorkload(t, evs, clk, WithShards(4), WithShardEpoch(500))
		p := qprof.New()
		s.SetQueryProfiler(p)
		rng := rand.New(rand.NewSource(5))
		minT, maxT, _ := s.TimeRange()
		for q := 0; q < 200; q++ {
			obj := event.ObjID(rng.Intn(s.NumObjects()))
			s.AppendBackward(nil, obj, minT, maxT+1)
			s.CountForward(obj, minT, maxT+1)
			s.IsReadOnlyFileRows(obj, minT, maxT+1)
			s.FileTimesRows(obj, minT, maxT+1)
		}
		return stripBusy(p.Snapshot()), stripBusySamples(p.Recent())
	}
	a, ra := run()
	b, rb := run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("profile diverged between identical runs:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("recent samples diverged between identical runs:\n%+v\n%+v", ra, rb)
	}
	if a.Queries == 0 || len(a.Kinds) == 0 || a.Scattered == 0 || len(ra) == 0 {
		t.Fatalf("empty profile: %+v", a)
	}
}

// TestScanFeedsShardHeat runs a Scan over a four-part store with a profiler
// attached: each part's routing heat in ShardInfos advances by one query and
// by exactly the rows of the window that part holds, like every other verb's.
func TestScanFeedsShardHeat(t *testing.T) {
	evs := randomWorkload(31, 5, 3000)
	s := buildWorkload(t, evs, simclock.NewSimulated(time.Time{}), WithShards(4), WithShardEpoch(500))
	s.SetQueryProfiler(qprof.New())
	minT, maxT, _ := s.TimeRange()
	from, to := minT+(maxT-minT)/4, maxT-(maxT-minT)/4
	want := make([]int64, s.ShardCount())
	for i, p := range s.parts {
		for _, e := range p.events {
			if e.Time >= from && e.Time < to {
				want[i]++
			}
		}
	}
	before := s.ShardInfos()
	if err := s.Scan(from, to, func(event.Event) bool { return true }); err != nil {
		t.Fatal(err)
	}
	for i, after := range s.ShardInfos() {
		queries, rows := after.Queries-before[i].Queries, after.RowsServed-before[i].RowsServed
		if rows != want[i] || queries != min(want[i], 1) {
			t.Errorf("part %d: scan added %d queries and %d rows, want %d and %d", i, queries, rows, min(want[i], 1), want[i])
		}
	}
	if n := s.QueryProfiler().Snapshot().Queries; n != 1 {
		t.Fatalf("profiler saw %d queries, want 1", n)
	}
}

// benchStore builds one sealed sharded store for the overhead benchmarks.
func benchStore(b *testing.B, opts ...Option) *Store {
	b.Helper()
	evs := randomWorkload(21, 5, 4000)
	s := New(simclock.NewSimulated(time.Time{}), opts...)
	for _, g := range evs {
		if _, err := s.AddEvent(g.t, g.subject, g.object, g.action, g.dir, g.amount); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkQueryNilProfiler measures the per-query cost of the profiling
// hooks when no profiler is attached — the price every deployment pays.
// It must stay a few ns.
func BenchmarkQueryNilProfiler(b *testing.B) {
	s := benchStore(b, WithShards(4), WithShardEpoch(500))
	minT, maxT, _ := s.TimeRange()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CountBackward(event.ObjID(i%s.NumObjects()), minT, maxT+1)
	}
}
