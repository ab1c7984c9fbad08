package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/explain"
	"aptrace/internal/fleet"
	"aptrace/internal/graph"
	"aptrace/internal/refiner"
	"aptrace/internal/workload"
)

// testEnv builds a small but explosion-capable dataset shared by the tests.
func testEnv(t testing.TB) *Env {
	t.Helper()
	env, err := NewEnv(workload.Config{Seed: 21, Hosts: 6, Days: 4, Density: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// testCfg shrinks the sample count so tests stay fast; the shape assertions
// hold regardless of scale.
func testCfg() Config {
	return Config{Samples: 30, Cap: 30 * time.Minute, Windows: 8, Seed: 42}
}

func TestRunSeverity(t *testing.T) {
	env := testEnv(t)
	var buf bytes.Buffer
	res, err := RunSeverity(env, testCfg(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 30 {
		t.Fatalf("samples = %d", res.Samples)
	}
	if len(res.Elapsed) != res.Samples || len(res.GraphSizes) != res.Samples {
		t.Fatal("per-sample series incomplete")
	}
	// Dependency explosion must be visible: some graphs grow large while
	// others stay tiny.
	if res.MaxGraph < 100 {
		t.Errorf("no explosion: max graph %d", res.MaxGraph)
	}
	small := 0
	for _, s := range res.GraphSizes {
		if s < 10 {
			small++
		}
	}
	if small == 0 {
		t.Error("no small graphs at all — sampling is suspicious")
	}
	out := buf.String()
	for _, want := range []string{"Severity", "> 20 minutes", "largest dependency graph"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestRunFig4(t *testing.T) {
	env := testEnv(t)
	var buf bytes.Buffer
	cfg := testCfg()
	res, err := RunFig4(env, cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Minutes) != 30 || len(res.Summaries) != 30 {
		t.Fatalf("expected 30 thresholds, got %d", len(res.Minutes))
	}
	// Medians must be non-decreasing in the time limit (longer budget
	// cannot shrink the graph).
	for i := 1; i < len(res.Summaries); i++ {
		if res.Summaries[i].Median < res.Summaries[i-1].Median {
			t.Fatalf("median decreased at %d minutes", i+1)
		}
		if res.Summaries[i].Max < res.Summaries[i-1].Max {
			t.Fatalf("max decreased at %d minutes", i+1)
		}
	}
	// The spread that makes time limits useless: orders of magnitude
	// between the largest and smallest graph at every threshold.
	if res.MeanMaxMin < 50 {
		t.Errorf("max/min spread too small: %.0f", res.MeanMaxMin)
	}
	if !strings.Contains(buf.String(), "median") {
		t.Error("report missing box columns")
	}
}

func TestRunTable1(t *testing.T) {
	env := testEnv(t)
	var buf bytes.Buffer
	res, err := RunTable1(env, testCfg(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	for _, r := range res.Rows {
		if !r.RootFound {
			t.Errorf("%s: root cause not found", r.Attack)
		}
		if r.Opt == 0 || r.NoOpt == 0 {
			t.Errorf("%s: zero-size graphs (opt=%d noOpt=%d)", r.Attack, r.Opt, r.NoOpt)
		}
		// The heuristics must pay off substantially. The paper reports
		// >99.5%; at test scale we demand at least 60% reduction.
		if float64(r.Opt) > 0.4*float64(r.NoOpt) {
			t.Errorf("%s: weak reduction: opt=%d noOpt=%d", r.Attack, r.Opt, r.NoOpt)
		}
		if r.Heuristics < 2 || r.Heuristics > 3 {
			t.Errorf("%s: heuristics = %d", r.Attack, r.Heuristics)
		}
	}
	if !strings.Contains(buf.String(), "No Opt") {
		t.Error("report missing table header")
	}
}

func TestRunTable2(t *testing.T) {
	env := testEnv(t)
	var buf bytes.Buffer
	res, err := RunTable2(env, testCfg(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.Updates == 0 || res.APTrace.Updates == 0 {
		t.Fatal("no updates recorded")
	}
	// The paper's central claim: the tail shrinks dramatically.
	if res.APTrace.P99 >= res.Baseline.P99 {
		t.Errorf("p99 not reduced: baseline %v vs aptrace %v", res.Baseline.P99, res.APTrace.P99)
	}
	if res.ReductionP99 < 2 {
		t.Errorf("p99 reduction only %.1fx", res.ReductionP99)
	}
	if res.APTrace.MaxGap >= res.Baseline.MaxGap {
		t.Errorf("max gap not reduced: %v vs %v", res.Baseline.MaxGap, res.APTrace.MaxGap)
	}
	if !strings.Contains(buf.String(), "reduction") {
		t.Error("report missing reduction line")
	}
}

func TestRunFig6(t *testing.T) {
	env := testEnv(t)
	var buf bytes.Buffer
	cfg := testCfg()
	cfg.Cap = 10 * time.Minute
	res, err := RunFig6(env, cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) < 2 {
		t.Fatalf("only %d samples", len(res.Samples))
	}
	for _, s := range res.Samples {
		if s.MemPct < 0 || s.MemPct > 100 {
			t.Errorf("mem%% out of range: %v", s.MemPct)
		}
		if s.HeapMB <= 0 {
			t.Errorf("heap reading missing")
		}
	}
	if !strings.Contains(buf.String(), "cpu%") {
		t.Error("report missing columns")
	}
}

func TestRunAblations(t *testing.T) {
	env := testEnv(t)
	cfg := testCfg()
	cfg.Samples = 10
	var buf bytes.Buffer
	k, err := RunAblationK(env, cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Rows) != 5 {
		t.Fatalf("k rows = %d", len(k.Rows))
	}
	p, err := RunAblationPolicy(env, cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rows) != 4 {
		t.Fatalf("policy rows = %d", len(p.Rows))
	}
	// The full design's tail should be competitive with every single-
	// mechanism-disabled variant. At this tiny test scale dense windows
	// are rare, so allow mild noise; the real separation shows up in the
	// full-scale apbench runs.
	full := p.Rows[0]
	noSplit := p.Rows[3]
	if float64(full.P99Gap) > 1.5*float64(noSplit.P99Gap) {
		t.Errorf("re-splitting clearly worsened the tail: %v vs %v", full.P99Gap, noSplit.P99Gap)
	}
	if !strings.Contains(buf.String(), "variant") {
		t.Error("report missing")
	}
}

// TestParallelMatchesSerial is the fleet's determinism guarantee: the same
// experiment, fanned out over 4 workers, must print byte-identical tables
// and return deeply equal structured results. One shared Env serves all
// runs, which additionally proves the fan-out never mutates shared dataset
// state. Covers E1 (severity), E4 (table2), and an ablation sweep; run
// under -race this is also the concurrency-safety check for views.
func TestParallelMatchesSerial(t *testing.T) {
	env := testEnv(t)
	serial := testCfg()
	par := testCfg()
	par.Parallel = 4

	t.Run("table2", func(t *testing.T) {
		var sBuf, pBuf bytes.Buffer
		sRes, err := RunTable2(env, serial, &sBuf)
		if err != nil {
			t.Fatal(err)
		}
		pRes, err := RunTable2(env, par, &pBuf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sBuf.Bytes(), pBuf.Bytes()) {
			t.Fatalf("parallel table differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", sBuf.String(), pBuf.String())
		}
		if !reflect.DeepEqual(sRes, pRes) {
			t.Fatalf("structured results diverge: %+v vs %+v", sRes, pRes)
		}
	})

	t.Run("severity", func(t *testing.T) {
		var sBuf, pBuf bytes.Buffer
		sRes, err := RunSeverity(env, serial, &sBuf)
		if err != nil {
			t.Fatal(err)
		}
		pRes, err := RunSeverity(env, par, &pBuf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sBuf.Bytes(), pBuf.Bytes()) {
			t.Fatalf("parallel table differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", sBuf.String(), pBuf.String())
		}
		if !reflect.DeepEqual(sRes, pRes) {
			t.Fatal("structured results diverge")
		}
	})

	t.Run("ablation", func(t *testing.T) {
		small := serial
		small.Samples = 10
		smallPar := par
		smallPar.Samples = 10
		var sBuf, pBuf bytes.Buffer
		sRes, err := RunAblationPolicy(env, small, &sBuf)
		if err != nil {
			t.Fatal(err)
		}
		pRes, err := RunAblationPolicy(env, smallPar, &pBuf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sBuf.Bytes(), pBuf.Bytes()) {
			t.Fatalf("parallel ablation differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", sBuf.String(), pBuf.String())
		}
		if !reflect.DeepEqual(sRes, pRes) {
			t.Fatal("structured results diverge")
		}
	})
}

// TestPartsAndCoresMatchFlat is the shard router's determinism contract at
// CI's table2 size: the table printed over a four-part store is the flat
// store's byte for byte, also when the four-part store is generated, sealed
// and queried under GOMAXPROCS(1).
func TestPartsAndCoresMatchFlat(t *testing.T) {
	cfg := Config{Samples: 25, Cap: 2 * time.Hour, Windows: 8, Seed: 42, Parallel: 1}
	table := func(parts int) string {
		env, err := NewEnv(workload.Config{Seed: 1, Hosts: 4, Days: 3, Density: 0.5, Shards: parts})
		if err != nil {
			t.Fatal(err)
		}
		if n := env.Dataset.Store.ShardCount(); n != parts {
			t.Fatalf("store has %d parts, want %d", n, parts)
		}
		var buf bytes.Buffer
		if _, err := RunTable2(env, cfg, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	flat, four := table(1), table(4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := table(4)
	if four != flat {
		t.Errorf("4 parts differ from flat:\n--- flat ---\n%s\n--- 4 parts ---\n%s", flat, four)
	}
	if serial != flat {
		t.Errorf("4 parts at GOMAXPROCS 1 differ from flat:\n--- flat ---\n%s\n--- 4 parts ---\n%s", flat, serial)
	}
}

func TestFmtHelpers(t *testing.T) {
	if fmtDur(3*time.Minute) != "3.0m" {
		t.Errorf("fmtDur(3m) = %s", fmtDur(3*time.Minute))
	}
	if fmtDur(30*time.Second) != "30s" {
		t.Errorf("fmtDur(30s) = %s", fmtDur(30*time.Second))
	}
	if fmtDur(1500*time.Millisecond) != "1.50s" {
		t.Errorf("fmtDur(1.5s) = %s", fmtDur(1500*time.Millisecond))
	}
	if pct(1, 4) != "25%" || pct(0, 0) != "n/a" {
		t.Error("pct helper broken")
	}
}

func TestCPUAndMemProbes(t *testing.T) {
	// On Linux these must return sane values; elsewhere they return zero.
	c1 := cpuTime()
	for i := 0; i < 1_000_000; i++ {
		_ = i * i
	}
	c2 := cpuTime()
	if c2 < c1 {
		t.Error("cpu time went backwards")
	}
	if tm := totalMemBytes(); tm < 0 {
		t.Error("negative total memory")
	}
}

func TestRunRefiner(t *testing.T) {
	env := testEnv(t)
	var buf bytes.Buffer
	res, err := RunRefiner(env, testCfg(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.GraphEdges == 0 {
		t.Fatal("no cached graph")
	}
	if res.RerunSimulated <= 0 {
		t.Fatal("re-run charged no database time")
	}
	// The whole point: repropagation is orders of magnitude cheaper than
	// the database time a re-run spends.
	if res.RepropagateWall > res.RerunSimulated/10 {
		t.Errorf("repropagation %v not clearly cheaper than re-run %v",
			res.RepropagateWall, res.RerunSimulated)
	}
	if !strings.Contains(buf.String(), "Refiner Reuse") {
		t.Error("report missing")
	}
}

// TestEveryGraphNodeExplained: a run's log justifies all of the graph it
// produced. Every sample of the test dataset is backtracked under a plan whose
// where clause and hop budget exclude candidates, once plain and once with a
// recorder attached; the two runs must produce the same edges in the same
// charged time, Explain must name the record that included every graph node,
// and the prune frontier must give a reason for every excluded candidate, with
// nothing lost to ring overflow.
func TestEveryGraphNodeExplained(t *testing.T) {
	env := testEnv(t)
	cfg := testCfg()
	plan := func() *refiner.Plan {
		p, err := refiner.ParseAndCompile(`backward proc p[exename = "*"] -> *
where file.path != "*.dll" and hop <= 6`)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	edgeIDs := func(g *graph.Graph) map[event.EventID]bool {
		ids := make(map[event.EventID]bool)
		for _, e := range g.Edges() {
			ids[e.ID] = true
		}
		return ids
	}
	nodes, pruned := 0, 0
	for i, ev := range env.sampleEvents(cfg.Samples, cfg.Seed) {
		plain, err := env.runOnce(plan(), cfg.execOptions(), ev)
		if err != nil {
			t.Fatal(err)
		}
		rec := explain.New(0, nil)
		opts := cfg.execOptions()
		opts.Explain = rec
		recorded, err := env.runOnce(plan(), opts, ev)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(edgeIDs(plain.Graph), edgeIDs(recorded.Graph)) || plain.Elapsed != recorded.Elapsed {
			t.Fatalf("sample %d: recording changed the run: %d edges in %v plain, %d in %v recorded",
				i, plain.Graph.NumEdges(), plain.Elapsed, recorded.Graph.NumEdges(), recorded.Elapsed)
		}
		// Any window or exclusion record makes an explanation non-empty; a
		// graph node's must also name the record that brought it in.
		for _, n := range recorded.Graph.Nodes() {
			nodes++
			if ex := rec.Explain(n.ID); ex.Empty() || !ex.Included || ex.Inclusion == nil {
				t.Errorf("sample %d: node %d has no inclusion record: %+v", i, n.ID, ex)
			}
		}
		for _, p := range rec.PruneFrontier() {
			pruned++
			if p.Reason == "" {
				t.Errorf("sample %d: pruned node %d has no reason", i, p.Node)
			}
		}
		if emitted, dropped := rec.Stats(); emitted == 0 || dropped != 0 {
			t.Errorf("sample %d: recorder kept %d records and dropped %d", i, emitted, dropped)
		}
	}
	if nodes == 0 {
		t.Fatal("fixture error: no graph nodes")
	}
	// The plan's where clause and hop budget must both leave a frontier.
	if pruned == 0 {
		t.Error("prune frontier empty across every sample")
	}
}

// TestTimelineParallelMatchesSerial holds the timeline's determinism
// contract over the harness's samples: each sampled analysis, run through
// fleet.Map with its lane — bound by sample index before dispatch — as the
// run log, must export the same trace bytes and the same graphs serially and
// on four workers, one lane per sample.
func TestTimelineParallelMatchesSerial(t *testing.T) {
	env := testEnv(t)
	cfg := testCfg()
	cfg.Cap = 20 * time.Minute
	events := env.sampleEvents(12, cfg.Seed)

	type sample struct {
		Edges   int
		Elapsed time.Duration
	}
	run := func(workers int) ([]sample, []byte) {
		lanes := make([]*explain.Recorder, len(events))
		for i := range lanes {
			lanes[i] = explain.New(0, nil)
			lanes[i].Bind(int64(i+1), fmt.Sprintf("sample %d", i), explain.DefaultStallFactor*explain.DefaultGapTarget)
		}
		res, err := fleet.Map(fleet.New(workers, nil), len(events), func(i int) (sample, error) {
			opts := cfg.execOptions()
			opts.Explain = lanes[i]
			r, err := env.runOnce(wildcardPlan(cfg.Cap), opts, events[i])
			if err != nil {
				return sample{}, err
			}
			return sample{r.Graph.NumEdges(), r.Elapsed}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep := explain.NewReport(explain.DefaultGapTarget, lanes); len(rep.Lanes) != len(events) || rep.Updates == 0 {
			t.Errorf("%d workers: %d lanes and %d updates for %d samples", workers, len(rep.Lanes), rep.Updates, len(events))
		}
		var trace bytes.Buffer
		if err := explain.WriteTrace(&trace, lanes); err != nil {
			t.Fatal(err)
		}
		return res, trace.Bytes()
	}

	serial, serialTrace := run(1)
	parallel, parallelTrace := run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("results diverge:\n%+v\nvs\n%+v", serial, parallel)
	}
	if !bytes.Equal(serialTrace, parallelTrace) {
		t.Fatalf("parallel trace bytes differ from serial (%d vs %d bytes)", len(serialTrace), len(parallelTrace))
	}
}
