package experiments

import (
	"runtime"
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
	"aptrace/internal/workload"
)

// runOnce is one whole analysis from alert over a private view of the
// dataset: the body of BenchmarkExecutorRun/bare.
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
// a fresh run log bound as a timeline lane on the shared registry, the
// query profiler inherited from the snapshot, and an OnUpdate hook — the body
// of BenchmarkExecutorRun/recorded, whose distance from bare is the recording
// budget.
func (e *Env) runRecorded(r *recorders, plan *refiner.Plan, windows int, alert event.Event) (*core.Result, error) {
	v, err := r.snap.View(simclock.NewSimulated(time.Time{}))
	if err != nil {
		return nil, err
	}
	rec := explain.New(0, r.reg)
	rec.Bind(1, "run", explain.DefaultStallFactor*explain.DefaultGapTarget)
	x, err := core.New(v, plan, core.Options{
		Windows:   windows,
		Telemetry: r.reg,
		Explain:   rec,
		OnUpdate:  func(core.Update) {},
	})
	if err != nil {
		return nil, err
	}
	return x.RunUnchecked(alert)
}

// perfAlert is the benchmark alert: apbench's default dataset and
// configuration, first sample of seed 42.
func perfAlert(tb testing.TB) (*Env, Config, event.Event) {
	tb.Helper()
	env, err := NewEnv(workload.Config{Seed: 1, Hosts: 12, Days: 10, Density: 1.5})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	return env, cfg, env.sampleEvents(1, cfg.Seed)[0]
}

// TestExecutorRunAllocations is the allocation ceiling of the executor's
// window loop: a whole analysis of the benchmark alert (apbench's default
// dataset, first sample of seed 42) with no observer attached may allocate
// only what amortised growth of its buffers, maps and graph slices costs — a
// few hundred allocations for tens of thousands of edges. Before
// the typed window heap, the reused window buffer and the slice-backed graph
// the backward run alone made 36,491. A per-window or per-edge allocation
// anywhere in the loop breaks the ceiling by an order of magnitude.
//
// The recorded case is the same backward run as the daemon runs it (explain
// recorder, timeline lane, telemetry, query profiler, OnUpdate): its 61k
// explain records, 24k lane events and 36k profiler samples may add
// only their pages and batches — a few hundred allocations, where the
// per-record recorders made 52,145 — and at most 7.8 MB, a quarter above the
// 6.2 MB it allocates.
func TestExecutorRunAllocations(t *testing.T) {
	env, cfg, alert := perfAlert(t)
	for _, tc := range []struct {
		name, script string
		maxBytes     float64 // 0: no byte ceiling
	}{
		// The benchmark's own run (BenchmarkExecutorRun/bare): 1.34 MB, the
		// ceiling a quarter above it. An index over the graph's edges (3.4 MB
		// with one) breaks it.
		{name: "backward", script: `backward proc p[exename = "*"] -> *`, maxBytes: 1.7e6},
		// Three times the edges of the backward run.
		{name: "forward", script: `forward proc p[exename = "*"] -> *`},
		// The where clause walks computed attributes rather than matching
		// strings: string conditions run a regexp whose scratch state comes
		// from a sync.Pool, which the race detector makes forgetful — CI runs
		// this test under -race.
		{name: "where+chain", script: `backward proc p[exename = "*"] -> proc q[exename = "explorer.exe"] -> *` + "\n" +
			`where file.last_access_time >= "1970-01-01 00:00:00" and proc.dst.isWriteThrough != true and hop <= 12`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := refiner.ParseAndCompile(tc.script)
			if err != nil {
				t.Fatal(err)
			}
			checkRunCost(t, 1000, tc.maxBytes, func() (*core.Result, error) {
				return env.runOnce(plan, cfg.execOptions(), alert)
			})
		})
	}
	t.Run("recorded", func(t *testing.T) {
		rec, err := env.newRecorders()
		if err != nil {
			t.Fatal(err)
		}
		checkRunCost(t, 2000, 7.8e6, func() (*core.Result, error) {
			return env.runRecorded(rec, wildcardPlan(0), cfg.Windows, alert)
		})
	})
}

// checkRunCost fails unless a run of at least 10,000 edges stays under both
// ceilings. It measures as testing.AllocsPerRun does — one processor, one
// warm-up, the mean of three runs — reading bytes from the same counters.
func checkRunCost(t *testing.T, maxAllocs, maxBytes float64, run func() (*core.Result, error)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 3
	var updates int
	var before, after runtime.MemStats
	for i := 0; i <= runs; i++ {
		if i == 1 {
			runtime.ReadMemStats(&before)
		}
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		updates = res.Updates
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if updates < 10000 {
		t.Fatalf("run found %d edges; the ceilings mean nothing on a run this small", updates)
	}
	if allocs > maxAllocs {
		t.Errorf("%.0f allocations for a run of %d edges, want <= %.0f", allocs, updates, maxAllocs)
	}
	if maxBytes > 0 && bytes > maxBytes {
		t.Errorf("%.0f bytes allocated for a run of %d edges, want <= %.0f", bytes, updates, maxBytes)
	}
	t.Logf("%d edges: %.0f allocs, %.0f bytes per run", updates, allocs, bytes)
}

// BenchmarkExecutorRun times the run TestExecutorRunAllocations bounds, so the
// standard profiler flags apply to it:
//
//	go test -run '^$' -bench ExecutorRun -cpuprofile cpu.out ./internal/experiments
//	go tool pprof -top -cum -focus RunUnchecked cpu.out
//
// bare is the run nobody records; recorded attaches what the triage daemon
// attaches (see runRecorded).
func BenchmarkExecutorRun(b *testing.B) {
	env, cfg, alert := perfAlert(b)
	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := env.runOnce(wildcardPlan(0), cfg.execOptions(), alert); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recorded", func(b *testing.B) {
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
	})
}
