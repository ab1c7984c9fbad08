package qprof_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aptrace/internal/core"
	"aptrace/internal/event"
	"aptrace/internal/graph"
	"aptrace/internal/qprof"
	"aptrace/internal/serve"
	"aptrace/internal/session"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
	"aptrace/internal/workload"
)

// untimed drops what a profile times — real CPU, different on every run —
// and keeps everything it counts.
func untimed(s qprof.Snapshot) qprof.Snapshot {
	s.BusyNs, s.SavableNs, s.MergeNs = 0, 0, 0
	for i := range s.Kinds {
		s.Kinds[i].BusyNs, s.Kinds[i].MergeNs = 0, 0
	}
	return s
}

func untimedSamples(ss []qprof.Sample) []qprof.Sample {
	for i := range ss {
		ss[i].MergeNs, ss[i].BusyNs, ss[i].SavableNs = 0, 0, 0
		for j := range ss[i].Shards {
			ss[i].Shards[j].BusyNs = 0
		}
	}
	return ss
}

// serveSample backtracks a few sampled alerts the way the daemon serves them
// (serve.ScriptForEvent, hop 6) and returns the frontier those runs explored:
// one (object, window) per graph update, the queries a served run is made of.
func serveSample(t *testing.T, st *store.Store) (objs []event.ObjID, tos []int64) {
	t.Helper()
	for _, alert := range st.RandomEvents(4, rand.New(rand.NewSource(5))) {
		alert := alert
		v, err := st.View(simclock.NewSimulated(time.Time{}))
		if err != nil {
			t.Fatal(err)
		}
		sess := session.New(v, core.Options{OnUpdate: func(u graph.Update) {
			objs, tos = append(objs, u.Event.Src()), append(tos, u.Event.Time)
		}})
		if err := sess.Start(serve.ScriptForEvent(alert, st, 6, 10*time.Minute), &alert); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if len(objs) < 600 {
		t.Fatalf("the serve sample explored %d edges: too few to fill an aggregate twice", len(objs))
	}
	return objs[:min(len(objs), 2500)], tos
}

// TestProfileAggregateMatchesPerSample drives the queries of the serve sample
// — a count and a fetch per explored edge, attribute walks now and then —
// through two views of the same store at 1, 4 and 7 parts. One folds them the
// way a run does: into its aggregate, handed to the profiler when full, once
// mid-run and at the end. The other hands over every query on its own, which
// leaves that query's raw sample in Recent; those samples, applied one by one
// by the fold the profiler used to have (ObserveBatchOracle), are the oracle.
// All three profiles must agree on everything a profile counts: totals, kinds,
// skew quantiles (these probes run inline, so skew is the rows fallback) and
// the recent ring.
func TestProfileAggregateMatchesPerSample(t *testing.T) {
	for _, parts := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			ds, err := workload.Generate(workload.Config{Seed: 9, Hosts: 4, Days: 3, Density: 0.4, Shards: parts},
				simclock.NewSimulated(time.Time{}))
			if err != nil {
				t.Fatal(err)
			}
			objs, tos := serveSample(t, ds.Store)
			from := ds.Store.GlobalStart()

			view := func() (*store.Store, *qprof.Profiler) {
				v, err := ds.Store.View(simclock.NewSimulated(time.Time{}))
				if err != nil {
					t.Fatal(err)
				}
				p := qprof.New()
				v.SetQueryProfiler(p)
				return v, p
			}
			batched, pBatched := view()
			single, pSingle := view()
			var samples []qprof.Sample
			query := func(fn func(*store.Store)) {
				fn(batched)
				fn(single)
				single.FlushQueryProfile()
				if int(pSingle.Snapshot().Queries) > len(samples) { // else a type guard answered: no query, no sample
					recent := pSingle.Recent()
					samples = append(samples, recent[len(recent)-1])
				}
			}
			var buf []event.Event
			for i, obj := range objs {
				obj, to := obj, tos[i]+1
				query(func(s *store.Store) { s.CountBackward(obj, from, to) })
				query(func(s *store.Store) { buf, _ = s.AppendBackward(buf[:0], obj, from, to) })
				if i%16 == 0 { // both endpoint indexes: a shard can appear twice in one split
					query(func(s *store.Store) { s.IsWriteThrough(obj, from, to) })
					query(func(s *store.Store) { s.FileTimes(obj, from, to) })
				}
				if i == len(objs)/2 {
					batched.FlushQueryProfile() // mid-run: whatever the aggregate holds
				}
			}
			batched.FlushQueryProfile()
			oracle := qprof.New()
			oracle.SetLayout(parts, ds.Store.ShardEpochSeconds())
			oracle.ObserveBatchOracle(samples)

			want := untimed(oracle.Snapshot())
			if want.Queries != int64(len(samples)) || len(want.Kinds) < 4 {
				t.Fatalf("the oracle saw too little: %+v", want)
			}
			if parts > 1 && (want.Scattered == 0 || want.SkewMax == 0) {
				t.Fatalf("no scattered query on %d parts: %+v", parts, want)
			}
			if got := untimed(pBatched.Snapshot()); !reflect.DeepEqual(got, want) {
				t.Errorf("aggregated profile differs from the per-sample fold:\n got %+v\nwant %+v", got, want)
			}
			if got := untimed(pSingle.Snapshot()); !reflect.DeepEqual(got, want) {
				t.Errorf("profile of one-query aggregates differs from the per-sample fold:\n got %+v\nwant %+v", got, want)
			}
			if got, want := untimedSamples(pBatched.Recent()), untimedSamples(oracle.Recent()); !reflect.DeepEqual(got, want) {
				t.Errorf("recent ring differs:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
