package experiments

import (
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"aptrace/internal/core"
	"aptrace/internal/event"
	"aptrace/internal/explain"
	"aptrace/internal/qprof"
	"aptrace/internal/refiner"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
	"aptrace/internal/telemetry"
	"aptrace/internal/timeline"
)

// PerfBench is one real-CPU benchmark measurement. Unlike every other
// experiment, these numbers are wall-clock properties of the host machine,
// not simulated-clock quantities, so they vary across runs and hardware;
// the trajectory across revisions is what BENCH_perf.json records.
type PerfBench struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// PerfResult is the structured result behind BENCH_perf.json.
type PerfResult struct {
	Events            int         `json:"events"`
	HotObjectInDegree int         `json:"hot_object_in_degree"`
	Benchmarks        []PerfBench `json:"benchmarks"`
	// PostingRangeSpeedup is posting_range_ref ns/op divided by
	// posting_range_soa ns/op: how much faster the struct-of-arrays time
	// column resolves a window than the pre-SoA path that dereferenced the
	// event log on every binary-search probe.
	PostingRangeSpeedup float64 `json:"posting_range_speedup"`
}

// sink defeats dead-code elimination in the reference benchmark.
var sink int

// runOnce is one whole analysis from alert over a private view of the
// dataset: the body of the executor_run benchmark.
func (e *Env) runOnce(plan *refiner.Plan, opts core.Options, alert event.Event) (*core.Result, error) {
	v, err := e.Dataset.Store.View(simclock.NewSimulated(time.Time{}))
	if err != nil {
		return nil, err
	}
	x, err := core.New(v, plan, opts)
	if err != nil {
		return nil, err
	}
	return x.RunUnchecked(alert)
}

// recorders is what the triage daemon creates once and every run shares: the
// metrics registry, and the snapshot whose query profiler each run's view
// inherits.
type recorders struct {
	reg  *telemetry.Registry
	snap *store.Store
}

func (e *Env) newRecorders() (*recorders, error) {
	snap, err := e.Dataset.Store.View(nil)
	if err != nil {
		return nil, err
	}
	snap.SetQueryProfiler(qprof.New())
	return &recorders{reg: telemetry.NewRegistry(), snap: snap}, nil
}

// runRecorded is runOnce as the triage daemon runs it (serve.Manager.execute):
// a fresh run log as a timeline lane on the shared registry, the
// query profiler inherited from the snapshot, and an OnUpdate hook — the body
// of the executor_run_recorded benchmark, whose distance from executor_run is
// the recording budget.
func (e *Env) runRecorded(r *recorders, plan *refiner.Plan, windows int, alert event.Event) (*core.Result, error) {
	v, err := r.snap.View(simclock.NewSimulated(time.Time{}))
	if err != nil {
		return nil, err
	}
	x, err := core.New(v, plan, core.Options{
		Windows:   windows,
		Telemetry: r.reg,
		Explain:   timeline.New(timeline.Options{Telemetry: r.reg}).Lane("run", explain.New(0, r.reg)),
		OnUpdate:  func(core.Update) {},
	})
	if err != nil {
		return nil, err
	}
	return x.RunUnchecked(alert)
}

// RunPerf measures the real-CPU cost of the hot query paths with
// testing.Benchmark: posting-range resolution (SoA vs the pre-SoA reference
// implementation), the allocation-free append query, a full executor run,
// and Seal. It establishes the repo's perf trajectory; simulated-clock
// experiments are unaffected by anything measured here.
func RunPerf(env *Env, cfg Config, w io.Writer) (*PerfResult, error) {
	st := env.Dataset.Store
	res := &PerfResult{Events: st.NumEvents()}

	// The hottest destination object makes the posting benchmarks probe the
	// longest time column, like the heavy hitters that dominate real runs.
	var hot event.ObjID
	for id := event.ObjID(0); int(id) < st.NumObjects(); id++ {
		if st.InDegree(id) > st.InDegree(hot) {
			hot = id
		}
	}
	res.HotObjectInDegree = st.InDegree(hot)
	min, max, ok := st.TimeRange()
	if !ok {
		return nil, fmt.Errorf("perf: empty store")
	}
	span := max - min
	from, to := min+span/4, min+3*span/4
	// The posting-range pair probes an execution-window-shaped query: one
	// bucket wide, late in history — the window shape the executor issues
	// while backtracking from a recent alert. The pre-SoA path binary-searches
	// the full posting list twice for it; the SoA path searches the upper
	// bound only in the tail the lower bound left over.
	bucket := st.BucketSeconds()
	qfrom, qto := max-bucket, max+1

	// Pre-SoA reference: posting lists as a per-object map of event-log
	// positions, with the window bounds resolved by two full-width binary
	// searches that dereference the log on every probe — a faithful replica
	// of the pre-index read path (map resolution included), rebuilt from the
	// public API.
	log := make([]event.Event, st.NumEvents())
	refDst := make(map[event.ObjID][]int32, st.NumObjects())
	for i := range log {
		log[i] = st.EventAt(i)
		d := log[i].Dst()
		refDst[d] = append(refDst[d], int32(i))
	}

	view := func() (*store.Store, error) { return st.View(simclock.NewSimulated(time.Time{})) }

	benches := []struct {
		name string
		run  func(b *testing.B)
	}{
		{"posting_range_soa", func(b *testing.B) {
			v, err := view()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := v.CountBackward(hot, qfrom, qto)
				if err != nil {
					b.Fatal(err)
				}
				sink = n
			}
		}},
		{"posting_range_ref", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				list := refDst[hot]
				lo := sort.Search(len(list), func(i int) bool {
					return log[list[i]].Time >= qfrom
				})
				hi := sort.Search(len(list), func(i int) bool {
					return log[list[i]].Time >= qto
				})
				sink = hi - lo
			}
		}},
		{"query_backward_append", func(b *testing.B) {
			v, err := view()
			if err != nil {
				b.Fatal(err)
			}
			var buf []event.Event
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, err = v.AppendBackward(buf[:0], hot, from, to)
				if err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"executor_run", func(b *testing.B) {
			alert := env.sampleEvents(1, cfg.Seed)[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.runOnce(wildcardPlan(0), cfg.execOptions(), alert); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"executor_run_recorded", func(b *testing.B) {
			alert := env.sampleEvents(1, cfg.Seed)[0]
			rec, err := env.newRecorders()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.runRecorded(rec, wildcardPlan(0), cfg.Windows, alert); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"seal", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := store.New(nil)
				for j := range log {
					e := log[j]
					if _, err := s.AddEvent(e.Time, st.Object(e.Subject), st.Object(e.Object), e.Action, e.Dir, e.Amount); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := s.Seal(); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	header(w, "Perf: real-CPU query-engine benchmarks (testing.Benchmark)")
	fmt.Fprintf(w, "%d events, hot object in-degree %d, window [%d, %d)\n\n",
		res.Events, res.HotObjectInDegree, from, to)
	fmt.Fprintf(w, "%-24s %14s %12s %10s %12s\n", "benchmark", "iterations", "ns/op", "B/op", "allocs/op")
	for _, bench := range benches {
		r := testing.Benchmark(bench.run)
		pb := PerfBench{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		res.Benchmarks = append(res.Benchmarks, pb)
		fmt.Fprintf(w, "%-24s %14d %12.1f %10d %12d\n",
			pb.Name, pb.Iterations, pb.NsPerOp, pb.BytesPerOp, pb.AllocsPerOp)
	}
	res.PostingRangeSpeedup = res.Benchmarks[1].NsPerOp / res.Benchmarks[0].NsPerOp
	fmt.Fprintf(w, "\nposting-range speedup (ref/soa): %.2fx\n", res.PostingRangeSpeedup)
	return res, nil
}
