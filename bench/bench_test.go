package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aptrace/internal/event"
)

// TestSmoke runs all five workloads, untraced and traced, at the smoke scale
// and checks that each run passes its correctness gate and emits exactly the
// metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloadNames))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloadNames[i])
		}
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			c, err := newConfig(name, 1, 0.2, trace, "smoke", &log)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := runOne(c)
			os.RemoveAll(c.TmpDir)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, log.String())
			}
			res := rep.result()
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v", name, trace, res.Correct, res.Attempted, res.Failed, rep.Problems)
			}
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want positive", name, m.Name, got.Value)
				}
			}
			if trace {
				if _, err := os.Stat(tracePath(c)); err != nil {
					t.Errorf("%s: trace file: %v", name, err)
				}
				if !strings.Contains(log.String(), "where the time goes") {
					t.Errorf("%s: traced run printed no where-the-time-goes table", name)
				}
			}
		}
	}
}

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

// TestTailPercentile: a tail percentile needs ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n          int
		value, pct float64
	}{
		{200, 180, 0.90}, // 20 beyond
		{100, 90, 0.90},  // exactly 10 beyond
		{99, 89, 89.0 / 99},
		{50, 40, 0.80}, // lowered until 10 lie beyond
		{15, 8, 8.0 / 15},
		{4, 2, 0.5}, // never below the median
		{1, 1, 1},
	} {
		v, used := tailPercentile(seq(tc.n), 0.90)
		if v != tc.value || math.Abs(used-tc.pct) > 1e-9 {
			t.Errorf("n=%d: got value %v at p%.1f, want %v at p%.1f", tc.n, v, 100*used, tc.value, 100*tc.pct)
		}
		if beyond := tc.n - int(v); tc.n >= 2*minTailSamples && beyond < minTailSamples {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", tc.n, beyond)
		}
	}
	if v, used := tailPercentile(nil, 0.9); v != 0 || used != 0 {
		t.Errorf("empty: got %v, %v", v, used)
	}
}

// TestQuartiles pins the spread to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

// TestSelfTime: a span's self time is its duration minus the union of its
// children's intervals, clipped to the span.
func TestSelfTime(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", StartNs: at(0), EndNs: at(100)},
		{ID: 1, Parent: 0, Name: "a", StartNs: at(10), EndNs: at(30)},
		{ID: 2, Parent: 0, Name: "b", StartNs: at(20), EndNs: at(50)},    // overlaps a
		{ID: 3, Parent: 0, Name: "c", StartNs: at(90), EndNs: at(120)},   // runs past the parent
		{ID: 4, Parent: 2, Name: "d", StartNs: at(25), EndNs: at(35)},    // grandchild
		{ID: 5, Parent: 0, Name: "mark", StartNs: at(60), EndNs: at(60)}, // instant
	}
	want := []int{50, 20, 20, 30, 10, 0}
	for i, got := range selfTimes(spans) {
		if got != at(want[i]) {
			t.Errorf("span %s: self %v, want %v", spans[i].Name, got, at(want[i]))
		}
	}

	tr := newTracer()
	root := tr.begin("t", "root", -1)
	child := tr.begin("t", "child", root)
	tr.end(child)
	tr.end(root)
	tr.add("t", "reported", root, tr.epoch, tr.epoch.Add(time.Millisecond))
	if got := len(tr.totals()); got != 3 {
		t.Errorf("%d span names, want 3", got)
	}
	var none *tracer
	none.end(none.begin("t", "x", -1)) // a nil tracer records nothing
	none.instant("t", "x", -1)
}

// TestCompare: the gate applies each metric's bound in its own direction and
// the failed-share rule.
func TestCompare(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{
		{Name: "alerts_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "run_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	}}
	set := func(perS, p50 float64, failed int) []resultSet {
		return []resultSet{{Seed: 1, Results: map[string]result{"triage_flat": {
			Correct: failed == 0, Attempted: 100, Failed: failed,
			Metrics: map[string]value{"alerts_per_s": {Value: perS, Unit: "1/s"}, "run_p50_ms": {Value: p50, Unit: "ms"}},
		}}}}
	}
	dir := t.TempDir()
	write := func(name string, sets []resultSet) string {
		p := filepath.Join(dir, name)
		if err := writeResults(p, sets); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", set(100, 50, 0))
	for _, tc := range []struct {
		name    string
		sets    []resultSet
		regress bool
	}{
		{"same", set(100, 50, 0), false},
		{"within", set(91, 57, 0), false},
		{"faster", set(150, 20, 0), false},
		{"slower-throughput", set(89, 50, 0), true},
		{"slower-latency", set(100, 58, 0), true},
		{"more-failures", set(100, 50, 1), true},
	} {
		var out bytes.Buffer
		err := compareFiles(sp, base, write(tc.name+".json", tc.sets), &out)
		if (err != nil) != tc.regress {
			t.Errorf("%s: err=%v, want regression=%v\n%s", tc.name, err, tc.regress, out.String())
		}
	}
}

// TestMatchProfile: the sample keeps the pool members nearest the targets.
func TestMatchProfile(t *testing.T) {
	pool := make([]event.Event, 6)
	for i := range pool {
		pool[i].ID = event.EventID(i + 1)
	}
	edges := []int{100, 205, 290, 400, 510, 900}
	// Three targets over shares 0.2..0.5 of 1000 events: 250, 350, 450.
	got := matchProfile(pool, edges, profile{0.2, 0.5}, 3, 1000)
	want := []event.EventID{4, 3, 2} // 450→400 (510 is further), 350→290, 250→205; largest first
	for i := range want {
		if got[i].ID != want[i] {
			t.Fatalf("matched %v, want IDs %v", got, want)
		}
	}
}
