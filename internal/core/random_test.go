package core

import (
	"fmt"
	"math/rand"
	"testing"

	"aptrace/internal/baseline"
	"aptrace/internal/event"
	"aptrace/internal/explain"
	"aptrace/internal/refiner"
	"aptrace/internal/store"
)

// randomStore builds a random but structurally valid store: processes start
// each other, read/write files, and talk to sockets.
func randomStore(t testing.TB, seed int64, n int) *store.Store {
	t.Helper()
	return randomStoreIn(t, seed, n, 100_000)
}

// randomStoreIn is randomStore with its events' times drawn from [0, span).
func randomStoreIn(t testing.TB, seed int64, n int, span int64) *store.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := store.New(nil)
	procs := make([]event.Object, 8+rng.Intn(8))
	for i := range procs {
		procs[i] = event.Process("h", fmt.Sprintf("p%02d", i), int32(i+1), int64(rng.Intn(50)))
	}
	files := make([]event.Object, 10+rng.Intn(10))
	for i := range files {
		files[i] = event.File("h", fmt.Sprintf("/f/%02d", i))
	}
	socks := make([]event.Object, 4)
	for i := range socks {
		socks[i] = event.Socket("", "10.0.0.1", uint16(1000+i), "9.9.9.9", 443)
	}
	for i := 0; i < n; i++ {
		sub := procs[rng.Intn(len(procs))]
		tm := rng.Int63n(span)
		var obj event.Object
		var act event.Action
		var dir event.Direction
		switch rng.Intn(6) {
		case 0:
			obj = procs[rng.Intn(len(procs))]
			act, dir = event.ActStart, event.FlowOut
		case 1:
			obj = files[rng.Intn(len(files))]
			act, dir = event.ActWrite, event.FlowOut
		case 2, 3:
			obj = files[rng.Intn(len(files))]
			act, dir = event.ActRead, event.FlowIn
		case 4:
			obj = socks[rng.Intn(len(socks))]
			act, dir = event.ActSend, event.FlowOut
		case 5:
			obj = socks[rng.Intn(len(socks))]
			act, dir = event.ActRecv, event.FlowIn
		}
		if _, err := s.AddEvent(tm, sub, obj, act, dir, rng.Int63n(4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestExecutorClosureOnRandomStores: across many random stores and random
// alerts, the executor's graph must exactly equal the reference backward
// closure, regardless of window count or policy.
func TestExecutorClosureOnRandomStores(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		seed := int64(100 + trial)
		s := randomStore(t, seed, 400+trial*37)
		rng := rand.New(rand.NewSource(seed * 7))
		alerts := s.RandomEvents(3, rng)
		for ai, alert := range alerts {
			want := naiveClosure(s, alert)
			opts := Options{Windows: 1 + rng.Intn(10)}
			if rng.Intn(3) == 0 {
				opts.UniformWindows = true
			}
			if rng.Intn(3) == 0 {
				opts.FIFOQueue = true
			}
			x, err := New(s, wildcardPlan(t, ""), opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := x.RunUnchecked(alert)
			if err != nil {
				t.Fatalf("trial %d alert %d: %v", trial, ai, err)
			}
			if res.Graph.NumEdges() != len(want) {
				t.Fatalf("trial %d alert %d (opts %+v): executor %d edges, closure %d",
					trial, ai, opts, res.Graph.NumEdges(), len(want))
			}
			for _, e := range res.Graph.Edges() {
				if !want[e.ID] {
					t.Fatalf("trial %d: edge %d not in closure", trial, e.ID)
				}
			}
		}
	}
}

// TestExecutorForwardClosureOnRandomStores mirrors the equivalence check for
// impact tracking.
func TestExecutorForwardClosureOnRandomStores(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		seed := int64(500 + trial)
		s := randomStore(t, seed, 400)
		rng := rand.New(rand.NewSource(seed * 3))
		alert := s.RandomEvents(1, rng)[0]
		want := naiveForwardClosure(s, alert)
		x, err := New(s, forwardPlan(t, ""), Options{Windows: 1 + rng.Intn(10)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := x.RunUnchecked(alert)
		if err != nil {
			t.Fatal(err)
		}
		if res.Graph.NumEdges() != len(want) {
			t.Fatalf("trial %d: forward executor %d edges, closure %d",
				trial, res.Graph.NumEdges(), len(want))
		}
	}
}

// TestBaselineNeverExceedsClosure: the baseline may under-explore (it bounds
// each object at its first discovery time) but must never invent edges.
func TestBaselineNeverExceedsClosure(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		s := randomStore(t, int64(900+trial), 500)
		rng := rand.New(rand.NewSource(int64(trial)))
		alert := s.RandomEvents(1, rng)[0]
		want := naiveClosure(s, alert)
		res, err := baseline.Run(s, alert, baseline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.Graph.Edges() {
			if !want[e.ID] {
				t.Fatalf("trial %d: baseline edge %d outside closure", trial, e.ID)
			}
		}
		if res.Graph.NumEdges() > len(want) {
			t.Fatalf("trial %d: baseline larger than closure", trial)
		}
	}
}

// TestPrepareIdempotent: Prepare twice with the same alert is a no-op; with
// a different alert it errors.
func TestPrepareIdempotent(t *testing.T) {
	s := randomStore(t, 77, 200)
	alerts := s.RandomEvents(2, rand.New(rand.NewSource(1)))
	x, err := New(s, wildcardPlan(t, ""), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Prepare(alerts[0]); err != nil {
		t.Fatal(err)
	}
	if x.Graph() == nil {
		t.Fatal("graph must exist after Prepare")
	}
	if err := x.Prepare(alerts[0]); err != nil {
		t.Fatalf("same-alert Prepare must be a no-op: %v", err)
	}
	if err := x.Prepare(alerts[1]); err == nil {
		t.Fatal("different-alert Prepare must fail")
	}
	// Run after explicit Prepare still works and completes.
	res, err := x.RunUnchecked(alerts[0])
	if err != nil || res.Reason != Completed {
		t.Fatalf("run after prepare: %v %v", res, err)
	}
}

// TestEveryEventFetchedOnce holds the executor to the invariant that lets the
// graph keep no index over its edges: within one run no window query returns
// a stored event that an earlier one returned, because a node's windows —
// the first enqueue, coverage slivers and re-split halves — partition the
// range it has covered. So every per-candidate record of a run names a
// distinct event; the alert, which seeded the graph without a query, may come
// back once more, as a dedup. It does when the caller's alert does not carry
// its stored time, so each store is also run from its alert moved to the end
// (backward) or the start (forward) of the store's range. Random stores, their
// times dense enough that many events share a second, are run backward and
// forward, with 1, 3 and 8 windows, with and without a hop budget, under a
// where filter and a prioritize rule, and with a plan swapped in from
// OnUpdate.
func TestEveryEventFetchedOnce(t *testing.T) {
	perCandidate := map[explain.Kind]bool{
		explain.KindEdgeAdded: true, explain.KindEdgeDedup: true, explain.KindEdgeDropped: true,
		explain.KindEdgeHostFiltered: true, explain.KindEdgeWhereRejected: true, explain.KindEdgeHopBudget: true,
	}
	compile := func(forward bool, where string) *refiner.Plan {
		head := `backward ip a[dst_ip = "6.6.6.6"] -> *`
		if forward {
			head = `forward file f[path = "/tmp/payload"] -> *`
		}
		p, err := refiner.ParseAndCompile(head + "\nwhere " + where + "\nprioritize [type = file] <- [type = network]")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	seen := map[explain.Kind]int{}
	boosted, swaps := 0, 0
	for trial := int64(0); trial < 4; trial++ {
		const span = 400
		s := randomStoreIn(t, 300+trial, 600, span)
		stored := s.RandomEvents(1, rand.New(rand.NewSource(trial)))[0]
		for _, run := range []struct {
			forward, moved bool
		}{{false, false}, {false, true}, {true, false}, {true, true}} {
			forward, alert := run.forward, stored
			if run.moved {
				alert.Time = span
				if forward {
					alert.Time = -1
				}
			}
			for _, k := range []int{1, 3, 8} {
				for _, hop := range []string{"", ` and hop <= 3`} {
					for _, swap := range []bool{false, true} {
						name := fmt.Sprintf("trial %d %+v k %d hop %q swap %v", trial, run, k, hop, swap)
						plan, other := compile(forward, `file.path != "/f/1*"`+hop), compile(forward, `file.path != "/f/0*"`+hop)
						rec := newLane("run", 1<<20, defaultLimit, nil)
						var x *Executor
						updates := 0
						x, err := New(s, plan, Options{Windows: k, Explain: rec, OnUpdate: func(Update) {
							if updates++; swap && updates == 5 {
								if err := x.UpdatePlan(other, refiner.Repropagate); err != nil {
									t.Error(err)
								}
								swaps++
							}
						}})
						if err != nil {
							t.Fatal(err)
						}
						res, err := x.RunUnchecked(alert)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if _, dropped := rec.Stats(); dropped != 0 {
							t.Fatalf("%s: the log dropped %d records", name, dropped)
						}
						fetched, dedups := map[event.EventID]int{}, map[event.EventID]int{}
						for _, r := range rec.Records() {
							if !perCandidate[r.Kind] {
								continue
							}
							seen[r.Kind]++
							if r.Kind == explain.KindEdgeAdded && r.Boost > 0 {
								boosted++
							}
							if r.Kind == explain.KindEdgeDedup && r.Event == alert.ID {
								dedups[r.Event]++
							} else {
								fetched[r.Event]++
							}
							if fetched[r.Event] > 1 || dedups[r.Event] > 1 {
								t.Fatalf("%s: event %d has a second %s record", name, r.Event, r.Kind)
							}
						}
						ids := map[event.EventID]bool{}
						for _, e := range res.Graph.Edges() {
							if ids[e.ID] {
								t.Fatalf("%s: event %d is two edges", name, e.ID)
							}
							ids[e.ID] = true
						}
					}
				}
			}
		}
	}
	t.Logf("per-candidate records: %v; %d boosted edges, %d plan swaps", seen, boosted, swaps)
	for _, kind := range []explain.Kind{explain.KindEdgeAdded, explain.KindEdgeDedup, explain.KindEdgeDropped,
		explain.KindEdgeWhereRejected, explain.KindEdgeHopBudget} {
		if seen[kind] == 0 {
			t.Errorf("no run made a %s record: the fixture no longer exercises it", kind)
		}
	}
	if boosted == 0 || swaps == 0 {
		t.Errorf("%d boosted edges, %d plan swaps: the fixture no longer exercises the prioritize rule or the swap", boosted, swaps)
	}
}
