package core

import (
	"container/heap"
	"math/rand"
	"testing"

	"aptrace/internal/event"
)

func TestGenExeWindowsGeometric(t *testing.T) {
	// Span 15000s with k=4: sigma = 15000/15 = 1000.
	// Windows (nearest first): [14000,15000) [12000,14000) [8000,12000) [0,8000).
	e := event.Event{ID: 1, Time: 15000, Subject: 7, Dir: event.FlowOut}
	ws := appendExeWindows(nil, ExecWindow{Obj: e.Src(), Gen: e.ID}, 0, e.Time, 4)
	if len(ws) != 4 {
		t.Fatalf("got %d windows", len(ws))
	}
	want := [][2]int64{{14000, 15000}, {12000, 14000}, {8000, 12000}, {0, 8000}}
	for i, w := range ws {
		if w.Begin != want[i][0] || w.Finish != want[i][1] {
			t.Errorf("window %d = [%d,%d), want [%d,%d)", i, w.Begin, w.Finish, want[i][0], want[i][1])
		}
		if w.Obj != e.Src() || w.Gen != e.ID {
			t.Errorf("window %d carries wrong object/event", i)
		}
	}
	// Ratio-2 lengths except the last (absorbs the remainder).
	for i := 1; i < len(ws)-1; i++ {
		l0 := ws[i-1].Finish - ws[i-1].Begin
		l1 := ws[i].Finish - ws[i].Begin
		if l1 != 2*l0 {
			t.Errorf("length ratio at %d: %d -> %d", i, l0, l1)
		}
	}
}

func TestGenExeWindowsDegenerate(t *testing.T) {
	e := event.Event{Time: 100}
	if ws := appendExeWindows(nil, ExecWindow{Obj: e.Src(), Gen: e.ID}, 100, e.Time, 8); ws != nil {
		t.Errorf("empty span: %v", ws)
	}
	if ws := appendExeWindows(nil, ExecWindow{Obj: e.Src(), Gen: e.ID}, 200, e.Time, 8); ws != nil {
		t.Errorf("negative span: %v", ws)
	}
	if ws := appendExeWindows(nil, ExecWindow{Obj: e.Src(), Gen: e.ID}, 0, e.Time, 0); ws != nil {
		t.Errorf("k=0: %v", ws)
	}
	// Tiny span: fewer windows, still full coverage.
	ws := appendExeWindows(nil, ExecWindow{Obj: e.Src(), Gen: e.ID}, 97, e.Time, 8)
	if len(ws) == 0 || ws[len(ws)-1].Begin != 97 || ws[0].Finish != 100 {
		t.Errorf("tiny span windows: %+v", ws)
	}
}

// Property: windows are disjoint, ordered nearest-first, and their union is
// exactly [ts, te).
func TestGenExeWindowsCoverageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		ts := rng.Int63n(1_000_000)
		te := ts + rng.Int63n(2_000_000) + 1
		k := 1 + rng.Intn(12)
		e := event.Event{Time: te, Subject: 1, Dir: event.FlowOut}
		ws := appendExeWindows(nil, ExecWindow{Obj: e.Src(), Gen: e.ID}, ts, e.Time, k)
		if len(ws) == 0 || len(ws) > k {
			t.Fatalf("trial %d: %d windows for k=%d", trial, len(ws), k)
		}
		if ws[0].Finish != te {
			t.Fatalf("trial %d: first window ends at %d, want %d", trial, ws[0].Finish, te)
		}
		for i, w := range ws {
			if w.Begin >= w.Finish {
				t.Fatalf("trial %d window %d: empty [%d,%d)", trial, i, w.Begin, w.Finish)
			}
			if i > 0 && w.Finish != ws[i-1].Begin {
				t.Fatalf("trial %d: gap/overlap between windows %d and %d", trial, i-1, i)
			}
		}
		if ws[len(ws)-1].Begin != ts {
			t.Fatalf("trial %d: last window starts at %d, want %d", trial, ws[len(ws)-1].Begin, ts)
		}
	}
}

func TestUniformWindows(t *testing.T) {
	w := ExecWindow{Obj: 3}
	ws := appendUniformWindows(nil, w, 0, 1000, 4)
	if len(ws) != 4 {
		t.Fatalf("%d windows", len(ws))
	}
	for i, w := range ws {
		if l := w.Finish - w.Begin; l != 250 {
			t.Errorf("window %d width %d, want 250", i, l)
		}
	}
	if ws := appendUniformWindows(nil, w, 1000, 1000, 4); ws != nil {
		t.Error("empty span must yield nothing")
	}
}

func TestWindowHeapOrdering(t *testing.T) {
	var h windowHeap
	h.push(&ExecWindow{State: 0, Boost: 0, Finish: 100})
	h.push(&ExecWindow{State: 0, Boost: 0, Finish: 900})
	h.push(&ExecWindow{State: 2, Boost: 0, Finish: 50})
	h.push(&ExecWindow{State: 0, Boost: 1, Finish: 10})
	h.push(&ExecWindow{State: 2, Boost: 0, Finish: 500})

	pops := make([]ExecWindow, 0, 5)
	for {
		w, ok := h.pop()
		if !ok {
			break
		}
		pops = append(pops, w)
	}
	// Expected: state 2 (finish 500 then 50), then boost 1, then finish 900, 100.
	if pops[0].Finish != 500 || pops[1].Finish != 50 {
		t.Errorf("state ordering broken: %v %v", pops[0], pops[1])
	}
	if pops[2].Boost != 1 {
		t.Errorf("boost should come third: %+v", pops[2])
	}
	if pops[3].Finish != 900 || pops[4].Finish != 100 {
		t.Errorf("finish ordering broken: %v %v", pops[3], pops[4])
	}
}

func TestWindowHeapFIFO(t *testing.T) {
	h := windowHeap{fifo: true}
	h.push(&ExecWindow{State: 0, Finish: 1})
	h.push(&ExecWindow{State: 9, Finish: 999})
	h.push(&ExecWindow{State: 5, Finish: 5})
	order := []int64{1, 999, 5}
	for i := range order {
		w, _ := h.pop()
		if w.Finish != order[i] {
			t.Fatalf("fifo pop %d = finish %d, want %d", i, w.Finish, order[i])
		}
	}
}

func TestWindowHeapEmptyPop(t *testing.T) {
	var h windowHeap
	if _, ok := h.pop(); ok {
		t.Fatal("pop on empty heap must report not-ok")
	}
}

// refHeap is the queue as it was before windowHeap was typed: the same
// ordering on container/heap. It is the oracle for TestWindowHeapMatchesReference.
type refHeap struct {
	items         []ExecWindow
	next          int64
	fifo, forward bool
}

func (h *refHeap) Len() int { return len(h.items) }

func (h *refHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if h.fifo {
		return a.seq < b.seq
	}
	if a.State != b.State {
		return a.State > b.State
	}
	if a.Boost != b.Boost {
		return a.Boost > b.Boost
	}
	if h.forward {
		if a.Begin != b.Begin {
			return a.Begin < b.Begin
		}
	} else if a.Finish != b.Finish {
		return a.Finish > b.Finish
	}
	return a.seq < b.seq
}

func (h *refHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *refHeap) Push(x any)    { h.items = append(h.items, x.(ExecWindow)) }

func (h *refHeap) Pop() any {
	n := len(h.items)
	it := h.items[n-1]
	h.items = h.items[:n-1]
	return it
}

func (h *refHeap) push(w ExecWindow) {
	w.seq = h.next
	h.next++
	heap.Push(h, w)
}

func (h *refHeap) pop() (ExecWindow, bool) {
	if h.Len() == 0 {
		return ExecWindow{}, false
	}
	return heap.Pop(h).(ExecWindow), true
}

// TestWindowHeapMatchesReference drives windowHeap and the container/heap
// oracle with the same random interleaving of pushes and pops — keys drawn
// from a small range so ties on every field are the rule, popped windows
// re-split into halves and pushed back as the executor does — and requires
// the same window out of every pop, in every queue mode.
func TestWindowHeapMatchesReference(t *testing.T) {
	modes := []struct {
		name          string
		fifo, forward bool
	}{{"backward", false, false}, {"forward", false, true}, {"fifo", true, false}, {"fifo-forward", true, true}}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			got := windowHeap{fifo: m.fifo, forward: m.forward}
			want := refHeap{fifo: m.fifo, forward: m.forward}
			push := func(w ExecWindow) {
				want.push(w)
				got.push(&w)
			}
			pop := func() (ExecWindow, bool) {
				g, gok := got.pop()
				w, wok := want.pop()
				if g != w || gok != wok {
					t.Fatalf("pop = %+v,%v; reference %+v,%v", g, gok, w, wok)
				}
				return g, gok
			}
			for step := 0; step < 20000; step++ {
				switch r := rng.Intn(10); {
				case r < 5:
					begin := int64(rng.Intn(6))
					push(ExecWindow{
						Begin: begin, Finish: begin + 1 + int64(rng.Intn(6)),
						Obj: event.ObjID(rng.Intn(4)), Gen: event.EventID(step),
						Card: int32(rng.Intn(3)), State: int16(rng.Intn(3) - 1), Boost: int8(rng.Intn(2)),
					})
				case r < 8:
					pop()
				default:
					// Re-split: both halves keep the key fields of the parent.
					w, ok := pop()
					if !ok || w.Finish-w.Begin < 2 {
						continue
					}
					mid := w.Begin + (w.Finish-w.Begin)/2
					near, far := w, w
					near.Begin, far.Finish = mid, mid
					push(near)
					push(far)
				}
				if got.Len() != want.Len() {
					t.Fatalf("step %d: Len = %d, reference %d", step, got.Len(), want.Len())
				}
			}
			for {
				if _, ok := pop(); !ok {
					break
				}
			}
		})
	}
}
