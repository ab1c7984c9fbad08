package core

import (
	"io"
	"slices"
	"sync"
	"testing"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/explain"
	"aptrace/internal/graph"
	"aptrace/internal/refiner"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
)

// TestPauseBlocksForUpdatePlan is the regression test for the documented
// Pause contract: pause → UpdatePlan from a controlling goroutine must never
// race an in-flight processWindow reading x.plan. Before the fix, Pause only
// set the flag and returned immediately, so the plan swap raced the run
// loop; the race detector catches it on this loop.
func TestPauseBlocksForUpdatePlan(t *testing.T) {
	clk := simclock.NewSimulated(time.Time{})
	s, alert := fixture(t, clk, 5000)
	started := make(chan struct{})
	var once sync.Once
	x, err := New(s, wildcardPlan(t, ""), Options{OnUpdate: func(Update) {
		once.Do(func() { close(started) })
	}})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := x.RunUnchecked(alert); err != nil {
			t.Error(err)
		}
	}()

	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("run produced no updates")
	}
	for i := 0; i < 50; i++ {
		x.Pause()
		// With the pause acknowledged, the loop is parked (or finished):
		// swapping the plan cannot race a window in flight.
		if err := x.UpdatePlan(wildcardPlan(t, ""), refiner.Resume); err != nil {
			t.Fatal(err)
		}
		x.Resume()
	}
	x.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("run did not stop")
	}
}

// TestUpdatePlanRequiresPause pins the guard added with the blocking pause:
// swapping the plan under a live, unpaused run loop is refused instead of
// racing it.
func TestUpdatePlanRequiresPause(t *testing.T) {
	clk := simclock.NewSimulated(time.Time{})
	s, alert := fixture(t, clk, 5000)
	started := make(chan struct{})
	var once sync.Once
	x, err := New(s, wildcardPlan(t, ""), Options{OnUpdate: func(Update) {
		once.Do(func() { close(started) })
	}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		x.RunUnchecked(alert)
	}()
	<-started
	if err := x.UpdatePlan(wildcardPlan(t, ""), refiner.Resume); err == nil {
		// The run may legitimately have finished already; only a swap
		// accepted while the loop is live is a bug.
		x.mu.Lock()
		running := x.running
		x.mu.Unlock()
		if running {
			t.Fatal("UpdatePlan on a running, unpaused executor must be refused")
		}
	}
	x.Stop()
	<-done
}

// TestGraphConcurrentWithPrepare is the regression test for the
// unsynchronized Graph() read: Prepare writes x.g under the mutex while
// observers poll Graph(); before the fix the bare read raced the write.
func TestGraphConcurrentWithPrepare(t *testing.T) {
	s, alert := fixture(t, nil, 100)
	x, err := New(s, wildcardPlan(t, ""), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := x.Prepare(alert); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			_ = x.Graph()
		}
	}()
	wg.Wait()
	if x.Graph() == nil {
		t.Fatal("graph must be visible after Prepare")
	}
}

// TestGraphReadersDuringRun holds the graph to its one-writer, many-readers
// contract on the path that matters: a reader polls every kind of read —
// sorted copies, point lookups, the size, the DOT rendering — while the run
// loop extends the graph. Under -race any unsynchronized access to the node
// and edge slices or their index maps fails here.
//
// The run is a stamped one — explain recorder and timeline lane attached, so
// the loop times its records with its cached clock reading — and a second
// goroutine plays the session: it pauses the run, records the pause itself
// (those records read the clock on their own goroutine), swaps in a plan with
// a re-propagation, reads the graph and the records back, and resumes. The
// stamp and the stage of records not yet handed to the recorders are
// run-goroutine state; any leak of either across goroutines fails here.
// hammerGraph reads g the way the graph's concurrent readers do — the counts
// behind a session summary, the node and adjacency lookups of the console and
// the suggester, the DOT rendering — until stop closes, while the run loop
// inserts under its short lock and reads without one. It returns a channel
// closed when the reader has stopped. Under -race this is what holds the
// writer's lock-free accessors to the readers' copy-out-under-lock contract.
func hammerGraph(t *testing.T, g *graph.Graph, s *store.Store, stop <-chan struct{}) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for last := 0; ; {
			select {
			case <-stop:
				return
			default:
			}
			edges, nodes := g.NumEdges(), g.NumNodes() // Run.Summary
			if edges < last || nodes < 1 || g.MaxHop() < 0 {
				t.Errorf("graph shrank under a reader: %d edges after %d, %d nodes", edges, last, nodes)
				return
			}
			last = edges
			for _, d := range graph.TopFanIn(g, 3) { // console "top"
				n, ok := g.Node(d.ID)
				in := g.InEdges(d.ID)
				if !ok || n.ID != d.ID || len(in) < d.In {
					t.Errorf("node %d: Node = %+v, %v; %d in-edges after TopFanIn counted %d", d.ID, n, ok, len(in), d.In)
					return
				}
				for _, e := range in {
					out := g.OutEdges(e.Src())
					if e.Dst() != d.ID || !slices.Contains(out, e) {
						t.Errorf("in-edge %d of node %d: flows into %d, missing from its source's %d out-edges",
							e.ID, d.ID, e.Dst(), len(out))
						return
					}
				}
			}
			if err := graph.WriteDOT(io.Discard, g, s.Object); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	return done
}

func TestGraphReadersDuringRun(t *testing.T) {
	s, alert := fixture(t, simclock.NewSimulated(time.Time{}), 5000)
	rec := newLane("run", 1<<20, defaultLimit, nil) // never wraps: every edge keeps its record
	// One token per stretch of updates: the session below waits for it
	// between two pauses, so each pause parks the loop somewhere new.
	progress := make(chan struct{}, 1)
	runDone := make(chan struct{})
	x, err := New(s, wildcardPlan(t, ""), Options{Explain: rec, OnUpdate: func(Update) {
		select {
		case progress <- struct{}{}:
		default:
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Prepare(alert); err != nil {
		t.Fatal(err)
	}
	g := x.Graph()
	stop := make(chan struct{})
	hammerDone := hammerGraph(t, g, s, stop)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		last := 0
		for {
			edges := g.Edges()
			if len(edges) < last {
				t.Errorf("graph shrank under a reader: %d edges after %d", len(edges), last)
				return
			}
			last = len(edges)
			for _, e := range edges[len(edges)/2:] {
				if _, ok := g.Node(e.Src()); !ok {
					t.Errorf("edge %d is in the graph but its source node %d is not", e.ID, e.Src())
					return
				}
			}
			if n := g.NumEdges(); n < last {
				t.Errorf("NumEdges = %d after Edges returned %d", n, last)
				return
			}
			if err := graph.WriteDOT(io.Discard, g, s.Object); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	// Every view of the log, read while the loop flushes into it.
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		for emitted := uint64(0); ; {
			if err := explain.WriteTrace(io.Discard, []*explain.Recorder{rec}); err != nil {
				t.Error(err)
				return
			}
			recs := rec.Records()
			ex := rec.Explain(alert.Dst())
			updates := rec.Progress().Updates
			now, _ := rec.Stats()
			if now < emitted || uint64(len(recs)) < emitted || !ex.Start || updates >= int(now) {
				t.Errorf("log inconsistent under a reader: %d records emitted after %d, %d read, %d updates folded, start explained %v", now, emitted, len(recs), updates, ex.Start)
				return
			}
			emitted = now
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	sessionDone := make(chan struct{})
	go func() {
		defer close(sessionDone)
		defer x.Resume() // a failed check must not leave the run parked
		for i := 0; i < 20; i++ {
			select {
			case <-progress:
			case <-runDone:
				return
			}
			x.Pause()
			rec.Pause()
			if err := x.UpdatePlan(wildcardPlan(t, ""), refiner.Repropagate); err != nil {
				t.Error(err)
				return
			}
			if x.Graph() != g || len(rec.Records()) == 0 {
				t.Error("graph or records unreadable while paused")
				return
			}
			// The loop flushed its stage before it parked: a reader that
			// comes after Pause returned misses nothing of the windows done
			// so far — every edge in the graph has its record, the log has
			// counted every update, and the windows recorded as queued and
			// not yet as queried or split are the ones in the queue.
			added, queued := 0, 0
			for _, r := range rec.Records() {
				switch r.Kind {
				case explain.KindEdgeAdded:
					added++
				case explain.KindWindowEnqueued:
					queued++
				case explain.KindWindowQueried, explain.KindWindowResplit:
					queued--
				}
			}
			if n := g.NumEdges(); added != n || rec.Progress().Updates != n-1 || queued != x.pq.Len() || len(x.stage.Recs) != 0 {
				t.Errorf("parked with %d edges and %d windows queued: %d edge records, %d updates folded, %d windows open in the records, %d records still staged",
					n, x.pq.Len(), added, rec.Progress().Updates, queued, len(x.stage.Recs))
				return
			}
			rec.Resume()
			select { // updates since the pause was asked for are not progress past it
			case <-progress:
			default:
			}
			x.Resume()
		}
	}()
	res, err := x.RunUnchecked(alert)
	close(runDone)
	close(stop)
	<-readerDone
	<-hammerDone
	<-logDone
	<-sessionDone
	if err != nil {
		t.Fatal(err)
	}
	if got := g.NumEdges(); got != res.Updates+1 {
		t.Fatalf("graph has %d edges after %d updates", got, res.Updates)
	}
}

// TestOnUpdateReentersExecutor guards the rule that no graph or executor
// lock is held across OnUpdate: the callback, on the run goroutine, requests
// a pause, swaps the plan with a re-propagation (which write-locks the graph
// for every node) and reads the graph and the explain records back. A lock
// held across the callback deadlocks here. It also pins Update.Edges to the
// post-insert edge count and the records to what the hook may see of them.
func TestOnUpdateReentersExecutor(t *testing.T) {
	s, alert := fixture(t, simclock.NewSimulated(time.Time{}), 2000)
	chain, err := refiner.ParseAndCompile(`backward ip a[dst_ip = "6.6.6.6"] -> proc p[exename = "mal.exe"] -> *`)
	if err != nil {
		t.Fatal(err)
	}
	var x *Executor
	rec := explain.New(1<<20, nil)
	edges := 1 // the alert edge
	x, err = New(s, chain, Options{Explain: rec, OnUpdate: func(u Update) {
		edges++
		if u.Edges != edges || x.Graph().NumEdges() != edges {
			t.Errorf("update %d: Update.Edges = %d, graph has %d", edges-1, u.Edges, x.Graph().NumEdges())
		}
		// The stage is flushed before the hook runs: the hook reads the
		// records up to and including its own update's, and nothing beyond.
		if edges < 20 || edges%7 == 0 {
			recs := rec.Records()
			if last := recs[len(recs)-1]; last.Kind != explain.KindEdgeAdded || last.Event != u.Event.ID || !last.At.Equal(u.At) {
				t.Errorf("update %d (event %d at %v): last record is %+v", edges-1, u.Event.ID, u.At, last)
			}
		}
		if edges%50 != 0 {
			return
		}
		x.Pause()
		if err := x.UpdatePlan(chain, refiner.Repropagate); err != nil {
			t.Error(err)
		}
		x.Resume()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Prepare(alert); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	hammerDone := hammerGraph(t, x.Graph(), s, stop)
	done := make(chan *Result, 1)
	go func() {
		res, err := x.RunUnchecked(alert)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	defer func() {
		close(stop)
		<-hammerDone
	}()
	select {
	case res := <-done:
		if res != nil && res.Updates+1 != edges {
			t.Fatalf("%d updates reported, %d delivered", res.Updates, edges-1)
		}
		if edges < 100 {
			t.Fatalf("run delivered %d updates; the callback never re-entered", edges-1)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run deadlocked: a lock is held across OnUpdate")
	}
}

// checkWindowInvariants asserts the contract shared by both generators:
// at most MaxWindows windows, positive widths, and an exact contiguous
// cover of the requested range (nearest-first for backward, nearest-first
// meaning ascending for forward).
func checkWindowInvariants(t *testing.T, ws []ExecWindow, lo, hi int64, forward bool) {
	t.Helper()
	if len(ws) == 0 {
		t.Fatal("no windows generated for a non-empty span")
	}
	if len(ws) > MaxWindows {
		t.Fatalf("generated %d windows, cap is %d", len(ws), MaxWindows)
	}
	for i, w := range ws {
		if w.Finish <= w.Begin {
			t.Fatalf("window %d has non-positive width: [%d,%d)", i, w.Begin, w.Finish)
		}
	}
	if forward {
		if ws[0].Begin != lo || ws[len(ws)-1].Finish != hi {
			t.Fatalf("cover is [%d,%d), want [%d,%d)", ws[0].Begin, ws[len(ws)-1].Finish, lo, hi)
		}
		for i := 1; i < len(ws); i++ {
			if ws[i].Begin != ws[i-1].Finish {
				t.Fatalf("gap between windows %d and %d", i-1, i)
			}
		}
		return
	}
	if ws[0].Finish != hi || ws[len(ws)-1].Begin != lo {
		t.Fatalf("cover is [%d,%d), want [%d,%d)", ws[len(ws)-1].Begin, ws[0].Finish, lo, hi)
	}
	for i := 1; i < len(ws); i++ {
		if ws[i].Finish != ws[i-1].Begin {
			t.Fatalf("gap between windows %d and %d", i-1, i)
		}
	}
}

// TestGenExeWindowsLargeK is the overflow regression test: with k >= 63 the
// un-clamped generators computed 2^k - 1 in int64, overflowing into a
// garbage sigma and producing more than MaxWindows windows over a wide
// span. The span 2^62 makes the failure visible: pre-fix k=63 emits 63
// windows (and k=64 emits 64), post-clamp both emit exactly 62.
func TestGenExeWindowsLargeK(t *testing.T) {
	// A raw event with a huge timestamp; Dir=FlowOut makes Subject the
	// flow source (the object backward windows search).
	e := event.Event{ID: 1, Time: 1 << 62, Subject: 0, Object: 1, Dir: event.FlowOut}
	for _, k := range []int{62, 63, 64} {
		ws := appendExeWindows(nil, ExecWindow{Obj: e.Src(), Gen: e.ID}, 0, e.Time, k)
		checkWindowInvariants(t, ws, 0, e.Time, false)

		fe := event.Event{ID: 2, Time: 0, Subject: 0, Object: 1, Dir: event.FlowOut}
		fws := appendExeWindowsForward(nil, ExecWindow{Obj: fe.Dst(), Gen: fe.ID}, fe.Time+1, 1<<62, k)
		checkWindowInvariants(t, fws, fe.Time+1, 1<<62, true)
	}
	// Geometric shape survives the clamp: nearest window smallest.
	ws := appendExeWindows(nil, ExecWindow{Obj: e.Src(), Gen: e.ID}, 0, e.Time, 63)
	if len(ws) != MaxWindows {
		t.Fatalf("k=63 over a 2^62 span must clamp to %d windows, got %d", MaxWindows, len(ws))
	}
	if first, last := ws[0], ws[len(ws)-1]; first.Finish-first.Begin >= last.Finish-last.Begin {
		t.Fatal("nearest window must be the smallest")
	}
}

// TestExecutorClampsWindowCount: an absurd Options.Windows must not break
// the analysis — core.New clamps it and the run still reaches the full
// closure.
func TestExecutorClampsWindowCount(t *testing.T) {
	s, alert := fixture(t, nil, 200)
	want := naiveClosure(s, alert)
	x, err := New(s, wildcardPlan(t, ""), Options{Windows: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	res, err := x.RunUnchecked(alert)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumEdges() != len(want) {
		t.Fatalf("clamped run found %d edges, closure has %d", res.Graph.NumEdges(), len(want))
	}
}
