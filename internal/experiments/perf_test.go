package experiments

import (
	"testing"

	"aptrace/internal/event"
	"aptrace/internal/refiner"
	"aptrace/internal/workload"
)

// perfAlert is the `apbench -exp perf` alert: apbench's default dataset and
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
// window loop: a whole analysis of the `apbench -exp perf` alert (apbench's
// default dataset, first sample of seed 42) with no observer attached may
// allocate only what amortised growth of its buffers, maps and graph slices
// costs — a few hundred allocations for tens of thousands of edges. Before
// the typed window heap, the reused window buffer and the slice-backed graph
// the backward run alone made 36,491. A per-window or per-edge allocation
// anywhere in the loop breaks the ceiling by an order of magnitude.
//
// The recorded case is the same backward run as the daemon runs it (explain
// recorder, timeline lane, telemetry, query profiler, OnUpdate): its 61k
// explain records, 24k lane events, 4k spans and 36k profiler samples may add
// only their pages and batches — a few hundred allocations, where the
// per-record recorders made 52,145.
func TestExecutorRunAllocations(t *testing.T) {
	env, cfg, alert := perfAlert(t)
	for _, tc := range []struct{ name, script string }{
		{"backward", `backward proc p[exename = "*"] -> *`},
		{"forward", `forward proc p[exename = "*"] -> *`},
		// The where clause walks computed attributes rather than matching
		// strings: string conditions run a regexp whose scratch state comes
		// from a sync.Pool, which the race detector makes forgetful — CI runs
		// this test under -race.
		{"where+chain", `backward proc p[exename = "*"] -> proc q[exename = "explorer.exe"] -> *` + "\n" +
			`where file.last_access_time >= "1970-01-01 00:00:00" and proc.dst.isWriteThrough != true and hop <= 12`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := refiner.ParseAndCompile(tc.script)
			if err != nil {
				t.Fatal(err)
			}
			var updates int
			allocs := testing.AllocsPerRun(3, func() {
				res, err := env.runOnce(plan, cfg.execOptions(), alert)
				if err != nil {
					t.Fatal(err)
				}
				updates = res.Updates
			})
			if updates < 10000 {
				t.Fatalf("run found %d edges; the ceiling means nothing on a run this small", updates)
			}
			if allocs > 1000 {
				t.Errorf("%.0f allocations for a run of %d edges, want <= 1000", allocs, updates)
			}
		})
	}
	t.Run("recorded", func(t *testing.T) {
		rec, err := env.newRecorders()
		if err != nil {
			t.Fatal(err)
		}
		var updates int
		allocs := testing.AllocsPerRun(3, func() {
			res, err := env.runRecorded(rec, wildcardPlan(0), cfg.Windows, alert)
			if err != nil {
				t.Fatal(err)
			}
			updates = res.Updates
		})
		if updates < 10000 {
			t.Fatalf("run found %d edges; the ceiling means nothing on a run this small", updates)
		}
		if allocs > 2000 {
			t.Errorf("%.0f allocations for a recorded run of %d edges, want <= 2000", allocs, updates)
		}
	})
}

// BenchmarkExecutorRun is the executor_run pair of `apbench -exp perf` as a
// testing.B, so the standard profiler flags apply to it:
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
