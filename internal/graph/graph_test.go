package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"aptrace/internal/event"
	"aptrace/internal/pages"
)

// chainGraph builds:
//
//	e0 (alert): 10 -> 20   (start)
//	e1: 11 -> 10
//	e2: 12 -> 11
//	e3: 13 -> 11  (branch)
func chainGraph(t *testing.T) *Graph {
	t.Helper()
	e0 := event.Event{ID: 100, Time: 1000, Subject: 10, Object: 20, Dir: event.FlowOut, Action: event.ActSend}
	g := New(e0)
	add := func(id event.EventID, tm int64, src, dst event.ObjID) {
		t.Helper()
		// FlowOut with Subject=src, Object=dst.
		ev := event.Event{ID: id, Time: tm, Subject: src, Object: dst, Dir: event.FlowOut, Action: event.ActWrite}
		if _, err := g.AddEdge(ev); err != nil {
			t.Fatal(err)
		}
	}
	add(101, 900, 11, 10)
	add(102, 800, 12, 11)
	add(103, 700, 13, 11)
	return g
}

func TestNewSeedsStart(t *testing.T) {
	e0 := event.Event{ID: 1, Time: 10, Subject: 5, Object: 6, Dir: event.FlowOut}
	g := New(e0)
	if g.NumEdges() != 1 || g.NumNodes() != 2 {
		t.Fatalf("seeded graph: %d edges, %d nodes", g.NumEdges(), g.NumNodes())
	}
	dst, _ := g.Node(6)
	src, _ := g.Node(5)
	if dst.Hop != 0 || src.Hop != 1 {
		t.Fatalf("hops: dst=%d src=%d, want 0,1", dst.Hop, src.Hop)
	}
	if g.Start() != e0 {
		t.Fatal("Start() changed")
	}
}

func TestAddEdgeSemantics(t *testing.T) {
	g := chainGraph(t)
	if g.NumEdges() != 4 || g.NumNodes() != 5 {
		t.Fatalf("graph: %d edges %d nodes", g.NumEdges(), g.NumNodes())
	}
	// Edge into an unknown node fails.
	bad := event.Event{ID: 999, Time: 1, Subject: 50, Object: 60, Dir: event.FlowOut}
	if _, err := g.AddEdge(bad); err == nil {
		t.Fatal("edge into unknown node must fail")
	}
	// New edge into a known node from a known node: an edge, not a node.
	cross := event.Event{ID: 104, Time: 600, Subject: 13, Object: 12, Dir: event.FlowOut}
	newNode, err := g.AddEdge(cross)
	if err != nil || newNode || g.NumEdges() != 5 {
		t.Fatalf("cross edge: %v %v, %d edges", newNode, err, g.NumEdges())
	}
}

func TestHops(t *testing.T) {
	g := chainGraph(t)
	wantHops := map[event.ObjID]int{20: 0, 10: 1, 11: 2, 12: 3, 13: 3}
	for id, want := range wantHops {
		n, ok := g.Node(id)
		if !ok || n.Hop != want {
			t.Errorf("hop(%d) = %d,%v want %d", id, n.Hop, ok, want)
		}
	}
	if g.MaxHop() != 3 {
		t.Errorf("MaxHop = %d", g.MaxHop())
	}
	// A shorter path found later must min-update the hop.
	short := event.Event{ID: 105, Time: 950, Subject: 12, Object: 10, Dir: event.FlowOut}
	if _, err := g.AddEdge(short); err != nil {
		t.Fatal(err)
	}
	n, _ := g.Node(12)
	if n.Hop != 2 {
		t.Errorf("hop(12) after shortcut = %d, want 2", n.Hop)
	}
}

func TestInOutEdges(t *testing.T) {
	g := chainGraph(t)
	in := g.InEdges(11)
	if len(in) != 2 {
		t.Fatalf("InEdges(11) = %d", len(in))
	}
	out := g.OutEdges(11)
	if len(out) != 1 || out[0].ID != 101 {
		t.Fatalf("OutEdges(11) = %+v", out)
	}
	if len(g.InEdges(999)) != 0 {
		t.Error("unknown node must have no edges")
	}
}

func TestStates(t *testing.T) {
	g := chainGraph(t)
	if n, _ := g.Node(11); n.State != -1 {
		t.Fatalf("initial state = %d", n.State)
	}
	g.SetState(11, 2)
	if n, _ := g.Node(11); n.State != 2 {
		t.Fatalf("state = %d", n.State)
	}
	g.SetState(999, 1) // unknown: ignored, no panic
	g.ResetStates()
	for _, n := range g.Nodes() {
		if n.State != -1 {
			t.Fatalf("node %d state %d after reset", n.ID, n.State)
		}
	}
}

func TestRetain(t *testing.T) {
	g := chainGraph(t)
	// Keep only the spine 20,10,11,12 (drop 13).
	removed := g.Retain(func(id event.ObjID) bool { return id != 13 })
	if removed != 1 {
		t.Fatalf("removed %d edges, want 1", removed)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("after retain: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if _, ok := g.Node(13); ok {
		t.Fatal("node 13 still present")
	}
	if len(g.InEdges(11)) != 1 {
		t.Fatalf("InEdges(11) = %d after retain", len(g.InEdges(11)))
	}
	// The alert's destination node survives even if keep rejects it.
	removed = g.Retain(func(id event.ObjID) bool { return false })
	if _, ok := g.Node(20); !ok {
		t.Fatal("alert destination node must always survive")
	}
	_ = removed
}

func TestRetainNoop(t *testing.T) {
	g := chainGraph(t)
	if removed := g.Retain(func(event.ObjID) bool { return true }); removed != 0 {
		t.Fatalf("noop retain removed %d", removed)
	}
	if g.NumEdges() != 4 {
		t.Fatal("noop retain changed the graph")
	}
}

func TestEdgesSortedDeterministic(t *testing.T) {
	g := chainGraph(t)
	edges := g.Edges()
	for i := 1; i < len(edges); i++ {
		if edges[i-1].ID >= edges[i].ID {
			t.Fatal("edges not sorted by ID")
		}
	}
	nodes := g.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1].ID >= nodes[i].ID {
			t.Fatal("nodes not sorted by ID")
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := chainGraph(t)
	objs := map[event.ObjID]event.Object{
		10: event.Process("h", "java.exe", 1, 0),
		11: event.Process("h", "excel.exe", 2, 0),
		12: event.File("h", `C:\mail\msg.xls`),
		13: event.Socket("h", "10.0.0.1", 1, "2.2.2.2", 443),
		20: event.Socket("h", "10.0.0.1", 2, "9.9.9.9", 443),
	}
	var sb strings.Builder
	if err := WriteDOT(&sb, g, func(id event.ObjID) event.Object { return objs[id] }); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	for _, want := range []string{
		"digraph aptrace",
		"shape=box",     // process
		"shape=ellipse", // file
		"shape=diamond", // socket
		"color=red",     // alert edge
		"n10 -> n20",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestPathFromStart(t *testing.T) {
	g := chainGraph(t)
	// Backward path from the alert's node (20) to node 12: 20<-10<-11<-12.
	path, ok := PathFromStart(g, 12, false)
	if !ok || len(path) != 3 {
		t.Fatalf("path = %v, ok=%v", path, ok)
	}
	if path[0].ID != 100 || path[1].ID != 101 || path[2].ID != 102 {
		t.Fatalf("path edges = %d,%d,%d", path[0].ID, path[1].ID, path[2].ID)
	}
	// Path to self is empty-but-ok.
	if p, ok := PathFromStart(g, 20, false); !ok || len(p) != 0 {
		t.Fatalf("self path = %v, %v", p, ok)
	}
	// Unreachable target.
	if _, ok := PathFromStart(g, 999, false); ok {
		t.Fatal("unreachable target must report !ok")
	}
}

func TestPathFromStartForward(t *testing.T) {
	// Forward graph: e0 10->20 (origin 20), then 20->30, 30->40.
	e0 := event.Event{ID: 1, Time: 10, Subject: 10, Object: 20, Dir: event.FlowOut}
	g := New(e0)
	for i, pair := range [][2]event.ObjID{{20, 30}, {30, 40}} {
		ev := event.Event{ID: event.EventID(2 + i), Time: int64(20 + i*10),
			Subject: pair[0], Object: pair[1], Dir: event.FlowOut}
		slot, ok := g.Slot(ev.Src())
		if !ok {
			t.Fatalf("edge %d departs from unknown node %d", ev.ID, ev.Src())
		}
		g.Add(&ev, slot, true, 0)
	}
	path, ok := PathFromStart(g, 40, true)
	if !ok || len(path) != 2 {
		t.Fatalf("forward path = %v, %v", path, ok)
	}
	if path[0].ID != 2 || path[1].ID != 3 {
		t.Fatalf("forward path order: %d,%d", path[0].ID, path[1].ID)
	}
}

// TestAddForwardEdge adds an edge for impact tracking: the known endpoint
// is the source, the destination is discovered one hop further out.
func TestAddForwardEdge(t *testing.T) {
	e0 := event.Event{ID: 1, Time: 10, Subject: 10, Object: 20, Dir: event.FlowOut}
	g := New(e0)
	if _, ok := g.Slot(77); ok {
		t.Fatal("an object off the graph has a slot")
	}
	ev := event.Event{ID: 2, Time: 20, Subject: 20, Object: 30, Dir: event.FlowOut}
	slot, ok := g.Slot(ev.Src())
	if !ok {
		t.Fatal("the start edge's destination is not a node")
	}
	if a := g.Add(&ev, slot, true, 0); !a.NewNode || g.NumEdges() != 2 {
		t.Fatalf("forward add: %+v, %d edges", a, g.NumEdges())
	}
	n, _ := g.Node(30)
	if n.Hop != 1 {
		t.Fatalf("hop(30) = %d, want 1 (origin 20 is hop 0)", n.Hop)
	}
}

func TestTopFanIn(t *testing.T) {
	g := chainGraph(t)
	top := TopFanIn(g, 2)
	if len(top) != 2 {
		t.Fatalf("top = %v", top)
	}
	// Node 11 has two in-edges (from 12 and 13); everything else has one.
	if top[0].ID != 11 || top[0].In != 2 {
		t.Fatalf("top[0] = %+v", top[0])
	}
	if all := TopFanIn(g, 100); len(all) == 0 {
		t.Fatal("unbounded TopFanIn empty")
	}
}

// refGraph is the graph as it was stored before the slice-backed records: a
// map of node pointers, a map of edges and two maps of adjacency ID lists.
// It is the reference model TestGraphMatchesReference holds Graph to.
type refGraph struct {
	nodes map[event.ObjID]*NodeInfo
	edges map[event.EventID]event.Event
	byDst map[event.ObjID][]event.EventID
	bySrc map[event.ObjID][]event.EventID
	start event.Event
}

func newRefGraph(e0 event.Event) *refGraph {
	g := &refGraph{
		nodes: map[event.ObjID]*NodeInfo{e0.Dst(): {ID: e0.Dst(), Hop: 0, State: -1}},
		edges: map[event.EventID]event.Event{},
		byDst: map[event.ObjID][]event.EventID{},
		bySrc: map[event.ObjID][]event.EventID{},
		start: e0,
	}
	g.insert(e0, e0.Src(), 1)
	return g
}

// insert links ev and min-updates (or creates) its discovered endpoint.
func (g *refGraph) insert(ev event.Event, found event.ObjID, hop int) {
	g.edges[ev.ID] = ev
	g.byDst[ev.Dst()] = append(g.byDst[ev.Dst()], ev.ID)
	g.bySrc[ev.Src()] = append(g.bySrc[ev.Src()], ev.ID)
	if n, ok := g.nodes[found]; ok {
		if hop < n.Hop {
			n.Hop = hop
		}
	} else {
		g.nodes[found] = &NodeInfo{ID: found, Hop: hop, State: -1}
	}
}

// add is the executor's former per-edge conversation: the hop-budget check
// on the known endpoint, then the edge's insert, then the discovered
// endpoint's hop and the edge count read back.
func (g *refGraph) add(ev event.Event, forward bool, hopLimit int) (Added, error) {
	known, found := ev.Dst(), ev.Src()
	if forward {
		known, found = found, known
	}
	kn, ok := g.nodes[known]
	if ok && hopLimit > 0 && kn.Hop+1 > hopLimit {
		return Added{OverBudget: true, Hop: kn.Hop + 1, Edges: len(g.edges)}, nil
	}
	if !ok {
		return Added{}, fmt.Errorf("unknown node %d", known)
	}
	_, existed := g.nodes[found]
	g.insert(ev, found, kn.Hop+1)
	return Added{NewNode: !existed, Hop: g.nodes[found].Hop, Edges: len(g.edges)}, nil
}

func (g *refGraph) retain(keep func(event.ObjID) bool) int {
	gone := map[event.ObjID]bool{}
	for id := range g.nodes {
		if id != g.start.Dst() && !keep(id) {
			gone[id] = true
		}
	}
	if len(gone) == 0 {
		return 0
	}
	removed := 0
	for id, ev := range g.edges {
		if gone[ev.Src()] || gone[ev.Dst()] {
			delete(g.edges, id)
			removed++
		}
	}
	for id := range gone {
		delete(g.nodes, id)
	}
	g.byDst = map[event.ObjID][]event.EventID{}
	g.bySrc = map[event.ObjID][]event.EventID{}
	for id, ev := range g.edges {
		g.byDst[ev.Dst()] = append(g.byDst[ev.Dst()], id)
		g.bySrc[ev.Src()] = append(g.bySrc[ev.Src()], id)
	}
	for _, lists := range []map[event.ObjID][]event.EventID{g.byDst, g.bySrc} {
		for _, l := range lists {
			sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		}
	}
	return removed
}

func (g *refGraph) events(ids []event.EventID) []event.Event {
	out := make([]event.Event, 0, len(ids))
	for _, id := range ids {
		out = append(out, g.edges[id])
	}
	return out
}

func (g *refGraph) sortedEdges() []event.Event {
	out := make([]event.Event, 0, len(g.edges))
	for _, e := range g.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (g *refGraph) sortedNodes() []NodeInfo {
	out := make([]NodeInfo, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, *n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (g *refGraph) maxHop() int {
	max := 0
	for _, n := range g.nodes {
		if n.Hop > max {
			max = n.Hop
		}
	}
	return max
}

func (g *refGraph) topFanIn(n int) []Degree {
	out := make([]Degree, 0, len(g.byDst))
	for id, edges := range g.byDst {
		out = append(out, Degree{ID: id, In: len(edges)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].In != out[j].In {
			return out[i].In > out[j].In
		}
		return out[i].ID < out[j].ID
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// TestGraphMatchesReference drives Graph and the map-based model with the
// same random operations — inserts of distinct events in both directions
// with and without a hop budget through the slot-carrying Add and its two
// wrappers, unknown endpoints, self-loops, state writes and resets, and
// Retain keeping everything, nothing, or a random subset — and compares
// every public read and every writer-side one (Slot, State, Epoch,
// Added.Slot) against the model. A duplicate event is a caller error, so
// none is drawn. The small universe makes shortcuts and self-loops the rule
// and is checked after every operation; the large one
// grows the node and edge logs past their first pages and is checked when a
// log is one short of a page, at it and one past it, after every Retain, and
// every 1500 steps in between.
func TestGraphMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name           string
		objects, steps int
		seeds          int64
		sparse         bool // check at page boundaries, after Retain and every 1500th step only
	}{
		{"small", 12, 400, 20, false},
		{"paged", 2*pages.Len + 200, 3000, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= tc.seeds; seed++ {
				graphMatchesReference(t, seed, tc.objects, tc.steps, tc.sparse)
			}
		})
	}
}

func graphMatchesReference(t *testing.T, seed int64, objects, steps int, sparse bool) {
	resolve := func(id event.ObjID) event.Object { return event.File("ws1", fmt.Sprintf(`C:\obj\%d`, id)) }
	rng := rand.New(rand.NewSource(seed))
	obj := func() event.ObjID { return event.ObjID(rng.Intn(objects)) }
	e0 := event.Event{ID: 1, Time: 1000, Subject: obj(), Object: obj(), Dir: event.FlowOut, Action: event.ActSend}
	if seed%5 == 0 {
		e0.Object = e0.Subject // a self-loop alert: one node, hop 0
	}
	g, ref := New(e0), newRefGraph(e0)
	nextID := event.EventID(2)
	// The slots the writer has been handed, good until Epoch moves.
	slots, epoch := map[event.ObjID]int32{}, 0
	nodeIDs := []event.ObjID{e0.Dst()} // some nodes of the graph, for the large universe to grow from

	check := func(op string) {
		t.Helper()
		fail := func(what string, got, want any) {
			t.Helper()
			t.Fatalf("seed %d after %s: %s = %+v, reference %+v", seed, op, what, got, want)
		}
		if got, want := g.Nodes(), ref.sortedNodes(); !reflect.DeepEqual(got, want) {
			fail("Nodes", got, want)
		}
		if got, want := g.Edges(), ref.sortedEdges(); !reflect.DeepEqual(got, want) {
			fail("Edges", got, want)
		}
		if g.NumNodes() != len(ref.nodes) || g.NumEdges() != len(ref.edges) {
			fail("NumNodes,NumEdges", [2]int{g.NumNodes(), g.NumEdges()}, [2]int{len(ref.nodes), len(ref.edges)})
		}
		if got, want := g.MaxHop(), ref.maxHop(); got != want {
			fail("MaxHop", got, want)
		}
		if g.Epoch() != epoch {
			slots, epoch = map[event.ObjID]int32{}, g.Epoch()
		}
		taken := map[int32]event.ObjID{}
		for id := event.ObjID(0); int(id) <= objects; id++ {
			n, ok := g.Node(id)
			rn, rok := ref.nodes[id]
			if ok != rok || (ok && n != *rn) {
				fail(fmt.Sprintf("Node(%d)", id), n, rn)
			}
			slot, sok := g.Slot(id)
			if sok != rok {
				fail(fmt.Sprintf("Slot(%d)", id), sok, rok)
			}
			if sok {
				if was, seen := slots[id]; seen && was != slot {
					fail(fmt.Sprintf("Slot(%d) within one epoch", id), slot, was)
				}
				if other, dup := taken[slot]; dup || slot < 0 || int(slot) >= len(ref.nodes) {
					fail(fmt.Sprintf("Slot(%d)", id), slot, fmt.Sprintf("a slot of its own below %d (object %d has it)", len(ref.nodes), other))
				}
				slots[id], taken[slot] = slot, id
				if got := g.State(slot); got != rn.State {
					fail(fmt.Sprintf("State(slot of %d)", id), got, rn.State)
				}
			}
			if got, want := g.InEdges(id), ref.events(ref.byDst[id]); !reflect.DeepEqual(got, want) {
				fail(fmt.Sprintf("InEdges(%d)", id), got, want)
			}
			if got, want := g.OutEdges(id), ref.events(ref.bySrc[id]); !reflect.DeepEqual(got, want) {
				fail(fmt.Sprintf("OutEdges(%d)", id), got, want)
			}
		}
		for _, n := range []int{0, 3, 100} {
			if got, want := TopFanIn(g, n), ref.topFanIn(n); !reflect.DeepEqual(got, want) {
				fail(fmt.Sprintf("TopFanIn(%d)", n), got, want)
			}
		}
		var got, want bytes.Buffer
		if err := WriteDOT(&got, g, resolve); err != nil {
			t.Fatal(err)
		}
		if err := writeDOT(&want, ref.sortedNodes(), ref.sortedEdges(), ref.start, resolve, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			fail("WriteDOT", got.String(), want.String())
		}
	}
	atPageEdge := func(n int) bool { r := n % pages.Len; return n >= pages.Len-1 && (r == pages.Len-1 || r <= 1) }

	check("New")
	for step := 0; step < steps; step++ {
		op, must := "", false
		r := rng.Intn(100)
		if sparse && r >= 70 && rng.Intn(500) > 0 {
			r = rng.Intn(70) // a growing graph: inserts, but for a state write or a Retain now and then
		}
		switch {
		case r < 70:
			ev := event.Event{
				ID: nextID, Time: int64(rng.Intn(2000)), Subject: obj(), Object: obj(),
				Dir: event.Direction(rng.Intn(2)), Action: event.ActWrite, Amount: int64(rng.Intn(100)),
			}
			nextID++
			if sparse && rng.Intn(4) > 0 {
				// Keep the large graph connected enough to grow: hang most edges
				// off a node it already has.
				known := nodeIDs[rng.Intn(len(nodeIDs))]
				if ev.Dir == event.FlowOut {
					ev.Object = known
				} else {
					ev.Subject = known
				}
			}
			if rng.Intn(8) == 0 {
				ev.Object = ev.Subject // self-loop
			}
			forward, hopLimit := rng.Intn(2) == 0, rng.Intn(3)*2 // 0 (none), 2 or 4
			if sparse && hopLimit > 0 {
				hopLimit += 20
			}
			op = fmt.Sprintf("Add(%+v, %v, %d)", ev, forward, hopLimit)
			want, wantErr := ref.add(ev, forward, hopLimit)
			var got Added
			var err error
			switch {
			case hopLimit > 0 || forward:
				known, found := ev.Dst(), ev.Src()
				if forward {
					known, found = found, known
				}
				slot, ok := g.Slot(known)
				if !ok {
					err = fmt.Errorf("unknown node %d", known)
					break
				}
				got = g.Add(&ev, slot, forward, hopLimit)
				if fs, _ := g.Slot(found); !got.OverBudget && got.Slot != fs {
					t.Fatalf("seed %d: %s handed out slot %d, Slot(%d) = %d", seed, op, got.Slot, found, fs)
				}
				got.Slot = 0
			default:
				got.NewNode, err = g.AddEdge(ev)
				want = Added{NewNode: want.NewNode}
			}
			if got != want || (err != nil) != (wantErr != nil) {
				t.Fatalf("seed %d: %s = %+v, %v; reference %+v, %v", seed, op, got, err, want, wantErr)
			}
			added := err == nil && !got.OverBudget
			must = added && (atPageEdge(len(ref.edges)) || (got.NewNode && atPageEdge(len(ref.nodes))))
			if got.NewNode {
				nodeIDs = append(nodeIDs, ev.Src(), ev.Dst()) // one of them is new, both are nodes
			}
		case r < 85:
			id, state := event.ObjID(rng.Intn(objects+1)), rng.Intn(4)-1
			g.SetState(id, state)
			if n, ok := ref.nodes[id]; ok {
				n.State = state
			}
			op = "SetState"
		case r < 90:
			g.ResetStates()
			for _, n := range ref.nodes {
				n.State = -1
			}
			op = "ResetStates"
		default:
			keepSet := map[event.ObjID]bool{}
			mode := rng.Intn(4) // 0: keep all, 1: keep only the start, else a random subset
			odds := 4
			if sparse {
				mode, odds = 2, 16 // the large graph loses a node in sixteen and grows back
			}
			for id := event.ObjID(0); int(id) < objects; id++ {
				keepSet[id] = mode == 0 || (mode > 1 && rng.Intn(odds) > 0)
			}
			keep := func(id event.ObjID) bool { return keepSet[id] }
			nodes, was := len(ref.nodes), g.Epoch()
			got, want := g.Retain(keep), ref.retain(keep)
			if got != want {
				t.Fatalf("seed %d: Retain removed %d edges, reference %d", seed, got, want)
			}
			if moved, removed := g.Epoch() != was, len(ref.nodes) != nodes; moved != removed {
				t.Fatalf("seed %d: Retain removed nodes: %v, Epoch moved: %v", seed, removed, moved)
			}
			op, must = fmt.Sprintf("Retain(mode %d)", mode), true
			nodeIDs = nodeIDs[:0]
			for id := range ref.nodes {
				nodeIDs = append(nodeIDs, id)
			}
			sort.Slice(nodeIDs, func(i, j int) bool { return nodeIDs[i] < nodeIDs[j] })
		}
		if !sparse || must || step%1500 == 0 || step == steps-1 {
			check(op)
		}
	}
	if sparse && (len(ref.edges) <= pages.Len+1 || len(ref.nodes) <= pages.Len+1) {
		t.Fatalf("seed %d: %d edges and %d nodes at the end: the logs never left their first page", seed, len(ref.edges), len(ref.nodes))
	}
}
