package maintainer

import (
	"testing"

	"aptrace/internal/event"
	"aptrace/internal/graph"
	"aptrace/internal/refiner"
	"aptrace/internal/store"
)

// buildAttack assembles the A1-like chain:
//
//	e5 (alert, t=1500): java.exe sends to 168.120.11.118   (java -> sock)
//	e4 (t=1200): excel.exe starts java.exe                  (excel -> java)
//	e3 (t=1100): excel.exe reads invoice.xls                (xls -> excel)
//	e2 (t=1000): outlook.exe writes invoice.xls             (outlook -> xls)
//	noise (t=1300): explorer.exe starts java.exe            (explorer -> java)
func buildAttack(t *testing.T) (*store.Store, *graph.Graph, map[string]event.ObjID) {
	t.Helper()
	s := store.New(nil)
	objs := map[string]event.Object{
		"outlook":  event.Process("h1", "outlook.exe", 1, 100),
		"excel":    event.Process("h1", "excel.exe", 2, 950),
		"java":     event.Process("h1", "java.exe", 3, 1150),
		"explorer": event.Process("h1", "explorer.exe", 4, 50),
		"xls":      event.File("h1", `C:\mail\invoice.xls`),
		"sock":     event.Socket("h1", "10.0.0.2", 49000, "168.120.11.118", 443),
	}
	type spec struct {
		tm       int64
		sub, obj string
		act      event.Action
		dir      event.Direction
	}
	var evs []event.Event
	for _, sp := range []spec{
		{1000, "outlook", "xls", event.ActWrite, event.FlowOut},
		{1100, "excel", "xls", event.ActRead, event.FlowIn},
		{1200, "excel", "java", event.ActStart, event.FlowOut},
		{1300, "explorer", "java", event.ActInject, event.FlowOut},
		{1500, "java", "sock", event.ActSend, event.FlowOut},
	} {
		id, err := s.AddEvent(sp.tm, objs[sp.sub], objs[sp.obj], sp.act, sp.dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		_ = id
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	for _, sp := range []int64{1000, 1100, 1200, 1300, 1500} {
		s.Scan(sp, sp+1, func(e event.Event) bool { evs = append(evs, e); return false })
	}
	ids := map[string]event.ObjID{}
	for name, o := range objs {
		id, _ := s.Lookup(o)
		ids[name] = id
	}

	// Build the dependency graph by hand in backtracking order.
	alert := evs[4]
	g := graph.New(alert)
	// deps of java: excel start (e2) and explorer inject.
	mustAdd(t, g, evs[2])
	mustAdd(t, g, evs[3])
	// deps of excel: read xls.
	mustAdd(t, g, evs[1])
	// deps of xls: outlook write.
	mustAdd(t, g, evs[0])
	return s, g, ids
}

func mustAdd(t *testing.T, g *graph.Graph, e event.Event) {
	t.Helper()
	if _, err := g.AddEdge(e); err != nil {
		t.Fatal(err)
	}
}

func compile(t *testing.T, src string) *refiner.Plan {
	t.Helper()
	p, err := refiner.ParseAndCompile(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStatePropagation(t *testing.T) {
	s, g, ids := buildAttack(t)
	plan := compile(t, `
backward ip alert[dst_ip = "168.120.11.118"]
 -> proc j[exename = "java.exe"]
 -> proc e[exename = "excel.exe"]
 -> *`)
	m := New(plan, s, 0, 2000)
	if m.FullState() != 2 {
		t.Fatalf("FullState = %d", m.FullState())
	}
	if err := m.Recalculate(g); err != nil {
		t.Fatal(err)
	}
	wantStates := map[string]int{
		"sock":     0,  // start
		"java":     1,  // matched chain[0]
		"excel":    2,  // matched chain[1] => full
		"explorer": -1, // does not match chain[1] from java
		"outlook":  -1, // beyond the chain (wildcard continuation)
		"xls":      -1,
	}
	for name, want := range wantStates {
		n, ok := g.Node(ids[name])
		if !ok {
			t.Fatalf("node %s missing", name)
		}
		if n.State != want {
			t.Errorf("state(%s) = %d, want %d", name, n.State, want)
		}
	}
}

func TestIncrementalOnEdgeMatchesRecalculate(t *testing.T) {
	s, _, _ := buildAttack(t)
	plan := compile(t, `
backward ip alert[dst_ip = "168.120.11.118"]
 -> proc j[exename = "java.exe"]
 -> proc e[exename = "excel.exe"]
 -> *`)

	// Rebuild the graph edge by edge, calling OnEdge as the executor does.
	var evs []event.Event
	s.Scan(0, 2000, func(e event.Event) bool { evs = append(evs, e); return true })
	alert := evs[4]
	g1 := graph.New(alert)
	m1 := New(plan, s, 0, 2000)
	m1.Seed(g1)
	for _, e := range []event.Event{evs[2], evs[3], evs[1], evs[0]} {
		mustAdd(t, g1, e)
		if err := m1.OnEdge(g1, &e); err != nil {
			t.Fatal(err)
		}
	}

	g2 := graph.New(alert)
	for _, e := range []event.Event{evs[2], evs[3], evs[1], evs[0]} {
		mustAdd(t, g2, e)
	}
	m2 := New(plan, s, 0, 2000)
	if err := m2.Recalculate(g2); err != nil {
		t.Fatal(err)
	}
	for _, n := range g2.Nodes() {
		inc, ok := g1.Node(n.ID)
		if !ok || inc.State != n.State {
			t.Errorf("node %d: incremental state %d, recalculated %d", n.ID, inc.State, n.State)
		}
	}
}

func TestCascadePropagation(t *testing.T) {
	// Add edges in an order where the chain match arrives late: the
	// excel->java edge is added before java has its state. The cascade in
	// propagate must promote transitively once the java state lands.
	s, _, _ := buildAttack(t)
	plan := compile(t, `
backward ip alert[dst_ip = "168.120.11.118"]
 -> proc j[exename = "java.exe"]
 -> proc e[exename = "excel.exe"]
 -> *`)
	var evs []event.Event
	s.Scan(0, 2000, func(e event.Event) bool { evs = append(evs, e); return true })
	alert := evs[4]

	g := graph.New(alert)
	m := New(plan, s, 0, 2000)
	// Intentionally do NOT Seed yet; add edges first so no state exists.
	mustAdd(t, g, evs[2]) // excel -> java
	mustAdd(t, g, evs[1]) // xls -> excel
	// Now seed: the alert edge promotes java to 1, which must cascade to
	// promote excel to 2 through the already-present edge.
	m.Seed(g)
	n, _ := g.Node(evs[1].Dst()) // excel
	if n.State != 2 {
		t.Fatalf("cascade failed: state(excel) = %d, want 2", n.State)
	}
}

func TestPruneExplicitEnd(t *testing.T) {
	s, g, ids := buildAttack(t)
	plan := compile(t, `
backward ip alert[dst_ip = "168.120.11.118"]
 -> proc j[exename = "java.exe"]
 -> proc e[exename = "excel.exe"]`)
	m := New(plan, s, 0, 2000)
	if err := m.Recalculate(g); err != nil {
		t.Fatal(err)
	}
	removed := m.Prune(g)
	if removed == 0 {
		t.Fatal("prune should remove the explorer and xls branches")
	}
	for _, keep := range []string{"sock", "java", "excel"} {
		if _, ok := g.Node(ids[keep]); !ok {
			t.Errorf("%s must survive pruning", keep)
		}
	}
	for _, drop := range []string{"explorer", "outlook", "xls"} {
		if _, ok := g.Node(ids[drop]); ok {
			t.Errorf("%s must be pruned (explicit end)", drop)
		}
	}
}

func TestPruneWildcardEndKeepsContinuation(t *testing.T) {
	s, g, ids := buildAttack(t)
	plan := compile(t, `
backward ip alert[dst_ip = "168.120.11.118"]
 -> proc j[exename = "java.exe"]
 -> proc e[exename = "excel.exe"]
 -> *`)
	m := New(plan, s, 0, 2000)
	if err := m.Recalculate(g); err != nil {
		t.Fatal(err)
	}
	m.Prune(g)
	// The wildcard keeps everything upstream of excel: xls and outlook.
	for _, keep := range []string{"sock", "java", "excel", "xls", "outlook"} {
		if _, ok := g.Node(ids[keep]); !ok {
			t.Errorf("%s must survive wildcard pruning", keep)
		}
	}
	if _, ok := g.Node(ids["explorer"]); ok {
		t.Error("explorer is off-chain and must be pruned")
	}
}

func TestPruneNoChainIsNoop(t *testing.T) {
	s, g, _ := buildAttack(t)
	plan := compile(t, `backward ip alert[dst_ip = "168.120.11.118"] -> *`)
	m := New(plan, s, 0, 2000)
	if err := m.Recalculate(g); err != nil {
		t.Fatal(err)
	}
	edges := g.NumEdges()
	if removed := m.Prune(g); removed != 0 {
		t.Fatalf("no-chain prune removed %d edges", removed)
	}
	if g.NumEdges() != edges {
		t.Fatal("graph changed")
	}
}

func TestPruneNothingMatched(t *testing.T) {
	s, g, _ := buildAttack(t)
	plan := compile(t, `
backward ip alert[dst_ip = "168.120.11.118"]
 -> proc x[exename = "nonexistent.exe"]
 -> *`)
	m := New(plan, s, 0, 2000)
	if err := m.Recalculate(g); err != nil {
		t.Fatal(err)
	}
	m.Prune(g)
	// No path matched: only the protected alert destination survives.
	if g.NumNodes() > 2 {
		t.Fatalf("%d nodes survived, want <= 2 (alert endpoints)", g.NumNodes())
	}
}
