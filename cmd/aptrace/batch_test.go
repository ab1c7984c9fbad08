package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"aptrace"
	"aptrace/internal/explain"
)

// testStore generates the fixture's history into a store of the given part
// count (1 = flat).
func testStore(t *testing.T, shards int) *aptrace.Store {
	t.Helper()
	ds, err := aptrace.Generate(aptrace.WorkloadConfig{Seed: 3, Hosts: 2, Days: 1, Density: 0.3, Shards: shards}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Store
}

// TestBatchZeroStarts: a detector rule with no hits is a normal outcome —
// exit clean with a clear message, write no per-alert DOT files.
func TestBatchZeroStarts(t *testing.T) {
	st := testStore(t, 1)
	dir := t.TempDir()
	src := fmt.Sprintf(`backward proc p[exename = "no-such-binary-xyz"] -> *
output = %q`, filepath.Join(dir, "graph.dot"))

	var out bytes.Buffer
	if err := runBatch(&out, st, src, 8, 2, true, nil, "", nil, nil); err != nil {
		t.Fatalf("zero matching starts must not be an error, got: %v", err)
	}
	if !strings.Contains(out.String(), "0 starting events") {
		t.Fatalf("stdout should say so explicitly, got: %q", out.String())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("no DOT files may be written for an empty batch, found %d", len(ents))
	}
}

// TestDotPathsCollision: duplicate event IDs must be rejected before any
// file is written, not silently overwrite each other's graphs.
func TestDotPathsCollision(t *testing.T) {
	starts := []aptrace.Event{{ID: 1}, {ID: 2}, {ID: 1}}
	if _, err := dotPaths("out.dot", starts); err == nil {
		t.Fatal("colliding event IDs should error")
	} else if !strings.Contains(err.Error(), "out.dot.1") {
		t.Fatalf("error should name the colliding path, got: %v", err)
	}

	paths, err := dotPaths("out.dot", starts[:2])
	if err != nil {
		t.Fatal(err)
	}
	if paths[0] != "out.dot.1" || paths[1] != "out.dot.2" {
		t.Fatalf("unexpected paths: %v", paths)
	}
}

// TestBatchMemoByteIdentical is the CLI-level slice of the charged-cost
// invariant: the summary table on stdout and every per-alert DOT file must be
// byte-identical to the plain run's under everything runBatch accepts that
// only accelerates or observes — the memo cache, -explain all, a timeline
// profiler, a 4-part store (simulated clock,
// so the elapsed column is deterministic). Each case also shows that what it
// attached was exercised; the timeline's trace must also be byte-identical at
// one worker and at four, one lane per alert.
func TestBatchMemoByteIdentical(t *testing.T) {
	run := func(t *testing.T, st *aptrace.Store, workers int, explArg string, tl *timeline, cache *aptrace.MemoCache) (string, map[string]string) {
		t.Helper()
		dir := t.TempDir()
		src := fmt.Sprintf(`backward proc p[exename = "explorer*"] -> *
where file.path != "*.dll" and proc.dst.isWriteThrough != true and time <= 30mins
output = %q`, filepath.Join(dir, "graph.dot"))
		var out bytes.Buffer
		if err := runBatch(&out, st, src, 8, workers, true, nil, explArg, tl, cache); err != nil {
			t.Fatal(err)
		}
		dots := make(map[string]string)
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			// -explain draws the prune frontier into the DOT as extra
			// x-nodes and their edges; the graph proper is every other line.
			var graph []string
			for _, line := range strings.SplitAfter(string(b), "\n") {
				if !strings.HasPrefix(line, "  x") {
					graph = append(graph, line)
				}
			}
			dots[e.Name()] = strings.Join(graph, "")
		}
		return out.String(), dots
	}

	flat := testStore(t, 1)
	plainOut, plainDots := run(t, flat, 4, "", nil, nil)
	if len(plainDots) == 0 {
		t.Fatal("fixture error: the batch should produce per-alert DOT files")
	}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T) (string, map[string]string)
	}{
		{"memo", func(t *testing.T) (string, map[string]string) {
			cache := aptrace.NewMemoCache(0, nil)
			out, dots := run(t, flat, 4, "", nil, cache)
			if cs := cache.Stats(); cs.Hits == 0 {
				t.Errorf("cache never hit: %+v", cs)
			}
			return out, dots
		}},
		{"explain", func(t *testing.T) (string, map[string]string) {
			return run(t, flat, 4, "all", nil, nil)
		}},
		{"timeline", func(t *testing.T) (string, map[string]string) {
			// Lanes are bound by alert index before any run starts, so the
			// trace cannot depend on scheduling: one worker and four export
			// the same bytes.
			var traces [2]bytes.Buffer
			var out string
			var dots map[string]string
			for i, workers := range []int{1, 4} {
				tl := &timeline{}
				out, dots = run(t, flat, workers, "", tl, nil)
				if rep := explain.NewReport(explain.DefaultGapTarget, tl.logs()); len(rep.Lanes) != len(plainDots) || rep.Updates == 0 {
					t.Errorf("%d workers: timeline recorded %d lanes and %d updates for %d alerts", workers, len(rep.Lanes), rep.Updates, len(plainDots))
				}
				if err := explain.WriteTrace(&traces[i], tl.logs()); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
				t.Errorf("trace differs between 1 and 4 workers (%d vs %d bytes)", traces[0].Len(), traces[1].Len())
			}
			return out, dots
		}},
		{"4 shards", func(t *testing.T) (string, map[string]string) {
			st := testStore(t, 4)
			if st.ShardCount() != 4 {
				t.Fatalf("store has %d parts, want 4", st.ShardCount())
			}
			return run(t, st, 4, "", nil, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, dots := tc.run(t)
			if out != plainOut {
				t.Fatalf("stdout diverged from the plain run:\n--- plain ---\n%s\n--- %s ---\n%s", plainOut, tc.name, out)
			}
			if len(dots) != len(plainDots) {
				t.Fatalf("DOT file count diverged: %d vs %d", len(dots), len(plainDots))
			}
			for name, want := range plainDots {
				if got, ok := dots[name]; !ok || got != want {
					t.Fatalf("DOT %s diverged from the plain run", name)
				}
			}
		})
	}
}

// TestTimelineHandlerServesBatchLanes: the CLI mounts /debug/timeline before
// a batch has found its alerts, and runBatch binds their lanes later. The
// handler must serve a valid trace all along — polled while the batch runs,
// as a live viewer would — and, once the lanes are bound, every one of them:
// the trace the run writes at exit.
func TestTimelineHandlerServesBatchLanes(t *testing.T) {
	tl := &timeline{}
	h := explain.TraceHandler(tl.logs)
	get := func() []byte {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/timeline", nil))
		return rr.Body.Bytes()
	}
	if before := get(); bytes.Contains(before, []byte(`"thread_name"`)) {
		t.Fatalf("trace before the batch has lanes: %s", before)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if err := explain.Validate(get()); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	src := `backward proc p[exename = "explorer*"] -> *
where time <= 30mins`
	var out bytes.Buffer
	err := runBatch(&out, testStore(t, 1), src, 8, 4, true, nil, "", tl, nil)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	lanes := tl.logs()
	if rows := strings.Count(out.String(), "\n") - 1; len(lanes) == 0 || len(lanes) != rows {
		t.Fatalf("%d lanes bound for %d alerts", len(lanes), rows)
	}
	var want bytes.Buffer
	if err := explain.WriteTrace(&want, lanes); err != nil {
		t.Fatal(err)
	}
	got := get()
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("handler serves %d bytes, the batch's trace is %d", len(got), want.Len())
	}
	if n := bytes.Count(got, []byte(`"thread_name"`)); n != len(lanes) {
		t.Errorf("served trace names %d lanes, want %d", n, len(lanes))
	}
}
