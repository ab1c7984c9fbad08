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
func qprofBattery(t *testing.T, evs []genEvent, opts ...Option) {
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
	if fv.qp.Load() != p {
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
	if fv.batch == nil {
		t.Fatal("the profiled view sampled nothing")
	}
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
					opts = []Option{WithShards(n), withShardEpoch(500)}
				}
				qprofBattery(t, evs, opts...)
			})
		}
	}
}

// TestScanFeedsShardHeat runs a Scan over a four-part store with a scatter
// observer attached: it is handed the scan's fan-out and, per part, exactly
// the rows of the window that part holds, like every other verb's split.
func TestScanFeedsShardHeat(t *testing.T) {
	evs := randomWorkload(31, 5, 3000)
	s := buildWorkload(t, evs, simclock.NewSimulated(time.Time{}), WithShards(4), withShardEpoch(500))
	var fanouts []int
	var heat []int64
	s.SetScatterObserver(func(fanout int, rows []int64) {
		fanouts, heat = append(fanouts, fanout), append(heat[:0], rows...)
	})
	minT, maxT, _ := s.TimeRange()
	from, to := minT+(maxT-minT)/4, maxT-(maxT-minT)/4
	want := make([]int64, s.ShardCount())
	wantFanout := 0
	for i, p := range s.parts {
		for _, e := range p.events {
			if e.Time >= from && e.Time < to {
				want[i]++
			}
		}
		if want[i] > 0 {
			wantFanout++
		}
	}
	if err := s.Scan(from, to, func(event.Event) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if len(fanouts) != 1 || fanouts[0] != wantFanout || !reflect.DeepEqual(heat, want) {
		t.Fatalf("scan observed as fan-outs %v with rows %v, want one of %d with rows %v", fanouts, heat, wantFanout, want)
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
	s := benchStore(b, WithShards(4), withShardEpoch(500))
	minT, maxT, _ := s.TimeRange()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CountBackward(event.ObjID(i%s.NumObjects()), minT, maxT+1)
	}
}
