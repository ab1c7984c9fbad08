package store_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/qprof"
	"aptrace/internal/simclock"
	"aptrace/internal/workload"
)

// BenchmarkQueryWithProfiler measures a query as a served run pays for it: a
// count and a fetch of one object's backward window, an hour wide, on a view
// of a generated enterprise store, over 20,000 random objects — the objects
// and windows a run's frontier moves through, never the same one twice in a
// row. The unprofiled and profiled cases query the same store, the profiled
// view with a live profiler attached, writing its samples into its aggregate
// and folding that into the profiler a batch at a time; at one part, the
// layout every served run of the repository's benchmark queries, and at four.
// Profiled must stay close to unprofiled (CI's query profiler budget allows
// 1.25×) and neither may allocate.
func BenchmarkQueryWithProfiler(b *testing.B) {
	for _, parts := range []int{1, 4} {
		ds, err := workload.Generate(workload.Config{Seed: 7, Hosts: 12, Days: 4, Density: 3, Shards: parts},
			simclock.NewSimulated(time.Time{}))
		if err != nil {
			b.Fatal(err)
		}
		type query struct {
			obj      event.ObjID
			from, to int64
		}
		rng := rand.New(rand.NewSource(1))
		qs := make([]query, 20000)
		distinct := map[event.ObjID]bool{}
		for i, e := range ds.Store.RandomEvents(len(qs), rng) {
			obj := event.ObjID(rng.Intn(ds.Store.NumObjects()))
			qs[i] = query{obj, e.Time - int64(time.Hour), e.Time + 1}
			distinct[obj] = true
		}
		b.Logf("%d events, %d objects, %d distinct", ds.Store.NumEvents(), ds.Store.NumObjects(), len(distinct))
		if len(distinct) <= 4096 {
			b.Fatalf("%d distinct objects: a run-shaped case queries more than 4,096", len(distinct))
		}
		for _, profiled := range []bool{false, true} {
			name := fmt.Sprintf("run/parts=%d/unprofiled", parts)
			if profiled {
				name = fmt.Sprintf("run/parts=%d/profiled", parts)
			}
			b.Run(name, func(b *testing.B) {
				v, err := ds.Store.View(nil)
				if err != nil {
					b.Fatal(err)
				}
				if profiled {
					v.SetQueryProfiler(qprof.New())
				}
				var buf []event.Event
				for _, q := range qs { // grow buf and the profiler's buffers, warm the postings
					v.CountBackward(q.obj, q.from, q.to)
					buf, _ = v.AppendBackward(buf[:0], q.obj, q.from, q.to)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q := &qs[i%len(qs)]
					v.CountBackward(q.obj, q.from, q.to)
					buf, _ = v.AppendBackward(buf[:0], q.obj, q.from, q.to)
				}
				b.StopTimer()
				v.FlushQueryProfile()
			})
		}
	}
}
