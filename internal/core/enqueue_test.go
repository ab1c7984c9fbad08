package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"aptrace/internal/event"
	"aptrace/internal/pages"
	"aptrace/internal/refiner"
	"aptrace/internal/store"
)

// refCoverage is the executor's per-object scheduling state as it was kept
// before node slots: a map from object ID to the latest (earliest, forward)
// time scheduled. refEnqueue is the enqueue/enqueueForward/schedule trio that
// went with it, returning the windows it would have pushed. Together they are
// the oracle TestEnqueueMatchesReference holds the slot-addressed table to.
type refCoverage map[event.ObjID]int64

func (covered refCoverage) refEnqueue(x *Executor, e event.Event, boost int) []ExecWindow {
	var ws []ExecWindow
	var obj event.ObjID
	if x.fwd {
		obj = e.Dst()
		te := e.Time
		if te < x.from {
			te = x.from
		}
		hi := x.to
		extension := false
		if prev, ok := covered[obj]; ok {
			if te+1 >= prev {
				return nil
			}
			hi = prev
			extension = true
		}
		covered[obj] = te + 1
		if extension {
			ws = append(ws, ExecWindow{Begin: te + 1, Finish: hi})
		} else {
			ws = appendExeWindowsForward(nil, ExecWindow{Obj: obj, Gen: e.ID}, te+1, hi, x.opts.Windows)
		}
	} else {
		obj = e.Src()
		ts, te := x.from, e.Time
		if te > x.to {
			te = x.to
		}
		extension := false
		if prev, ok := covered[obj]; ok {
			if te <= prev {
				return nil
			}
			ts = prev
			extension = true
		}
		covered[obj] = te
		if extension {
			ws = append(ws, ExecWindow{Begin: ts, Finish: te})
		} else {
			ws = appendExeWindows(nil, ExecWindow{Obj: obj, Gen: e.ID}, ts, te, x.opts.Windows)
		}
	}
	state := -1
	if n, ok := x.g.Node(obj); ok {
		state = n.State
	}
	var pushed []ExecWindow
	for _, w := range ws {
		n, err := x.count(obj, w.Begin, w.Finish)
		if err == nil && n == 0 {
			continue
		}
		pushed = append(pushed, ExecWindow{
			Begin: w.Begin, Finish: w.Finish, Obj: obj, Gen: e.ID,
			Card: int32(n), State: int16(state), Boost: int8(boost),
		})
	}
	return pushed
}

// TestEnqueueMatchesReference enqueues the events of a store with more
// writers than a page of node slots holds, in random order and with repeats —
// so first windows, coverage extensions and already-covered events all occur,
// on either side of the state table's page boundary — and requires the
// windows queued to be the ones the map-keyed version queued: range,
// object, generating event, estimate, state and boost, plus the slot of the
// object's node.
func TestEnqueueMatchesReference(t *testing.T) {
	const procs = pages.Len + 40
	s := store.New(nil)
	hub := event.File("h1", `C:\hub.dat`)
	sink := event.Process("h1", "sink.exe", 1, 10)
	var last event.EventID
	add := func(tm int64, sub, obj event.Object, a event.Action, d event.Direction) {
		id, err := s.AddEvent(tm, sub, obj, a, d, 8)
		if err != nil {
			t.Fatal(err)
		}
		last = id
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < procs; i++ {
		p := event.Process("h1", "w.exe", int32(100+i), 50)
		for k := 0; k < 3; k++ {
			add(100+rng.Int63n(9000), p, hub, event.ActWrite, event.FlowOut) // p -> hub
			add(100+rng.Int63n(9000), p, hub, event.ActRead, event.FlowIn)   // hub -> p
		}
	}
	add(9500, sink, hub, event.ActRead, event.FlowIn) // backward alert: hub -> sink
	add(50, sink, hub, event.ActWrite, event.FlowOut) // forward alert: sink -> hub
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	var events []event.Event
	if err := s.Scan(0, 1<<40, func(e event.Event) bool { events = append(events, e); return true }); err != nil {
		t.Fatal(err)
	}

	for _, dir := range []string{"backward", "forward"} {
		t.Run(dir, func(t *testing.T) {
			plan, err := refiner.ParseAndCompile(dir + ` proc p[exename = "sink.exe"] -> *`)
			if err != nil {
				t.Fatal(err)
			}
			alert, _ := s.EventByID(last - 1)
			if dir == "forward" {
				alert, _ = s.EventByID(last)
			}
			x, err := New(s, plan, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := x.Prepare(alert); err != nil {
				t.Fatal(err)
			}
			hubID := alert.Object
			hubSlot, ok := x.g.Slot(hubID)
			if !ok {
				t.Fatal("the hub is not a node of the seeded graph")
			}
			covered := refCoverage{}
			explored := alert.Src()
			if x.fwd {
				explored = alert.Dst()
			}
			covered.refEnqueue(x, alert, 0) // what Prepare scheduled
			for x.pq.Len() > 0 {
				x.pq.pop()
			}
			if _, ok := covered[explored]; !ok {
				t.Fatal("the alert scheduled nothing")
			}

			rng := rand.New(rand.NewSource(12))
			slots := map[int32]bool{}
			for step := 0; step < 4*len(events); step++ {
				ev := events[rng.Intn(len(events))]
				// Only the edges the hub's windows would discover: p -> hub
				// backward, hub -> p forward.
				known, found := ev.Dst(), ev.Src()
				if x.fwd {
					known, found = found, known
				}
				if known != hubID || ev.ID == alert.ID {
					continue
				}
				x.g.Add(&ev, hubSlot, x.fwd, 0)
				slot, ok := x.g.Slot(found)
				if !ok {
					t.Fatalf("step %d: object %d is not a node after Add", step, found)
				}
				slots[slot] = true
				if rng.Intn(4) == 0 {
					x.g.SetState(found, rng.Intn(3)-1)
				}
				boost := rng.Intn(2)
				want := covered.refEnqueue(x, ev, boost)
				x.enqueue(&ev, slot, boost)
				var got []ExecWindow
				for x.pq.Len() > 0 {
					w, _ := x.pq.pop()
					if w.Slot != slot {
						t.Fatalf("step %d: window of object %d carries slot %d, its node is in %d", step, w.Obj, w.Slot, slot)
					}
					w.Slot, w.seq = 0, 0
					got = append(got, w)
				}
				sort.Slice(got, func(i, j int) bool { return got[i].Begin < got[j].Begin })
				sort.Slice(want, func(i, j int) bool { return want[i].Begin < want[j].Begin })
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("step %d: enqueue(%+v, boost %d) queued\n%+v\nreference\n%+v", step, ev, boost, got, want)
				}
			}
			if len(slots) <= pages.Len {
				t.Fatalf("%d node slots scheduled: the state table never left its first page", len(slots))
			}
		})
	}
}
