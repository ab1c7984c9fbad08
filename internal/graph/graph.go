// Package graph implements the dependency (tracking) graph that backtracking
// analysis produces: nodes are system objects, edges are system events, and
// edge direction follows data flow (paper Section II).
//
// The graph is built incrementally by the executor as it discovers backward
// dependencies, and is consulted by the Dependency Graph Maintainer for
// state propagation and final path pruning.
//
// Storage is two slices, one record per node and one per edge, reached
// through one ObjID→index and one EventID→index map. A node's in- and
// out-edges are intrusive singly linked lists threaded through the edge
// records by index (head/tail/length on the node, next on the edge), so
// accepting an edge costs two amortised slice appends and two map inserts
// and allocates nothing else. Indices are private: every read copies values
// out under the lock, which is what makes the graph safe for one writer and
// any number of concurrent readers. Two writers are not supported beyond
// mutual exclusion (the executor's duplicate pre-check assumes nobody else
// inserts).
package graph

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"aptrace/internal/event"
)

// Update is one responsive progress report: an edge just landed in the
// dependency graph. At carries the clock timestamp (simulated or real) that
// the responsiveness experiments measure. Both APTrace's executor and the
// King-Chen baseline emit this type, so harnesses can treat them uniformly.
type Update struct {
	Event   event.Event
	NewNode bool
	At      time.Time
	Edges   int // graph size after this update
}

// NodeInfo is the per-object bookkeeping attached to a graph node.
type NodeInfo struct {
	ID event.ObjID
	// Hop is the minimum number of edges from the starting point's source
	// object to this node, used to enforce the BDL "hop" budget. The
	// alert's destination object has hop 0.
	Hop int
	// State is the maintainer's state index: the node is known to lie on
	// a path matching the tracking statement prefix n1..n_{State+1}.
	// -1 means no state assigned.
	State int
}

// The two adjacency directions of a node, indexing nodeRec.adj and
// edgeRec.next: in-edges are the edges whose data-flow destination is the
// node (its discovered backward dependencies), out-edges the reverse.
const (
	dirIn = iota
	dirOut
)

// edgeList is one direction of a node's adjacency: a chain of n edge records
// in insertion order, from head to tail. head and tail mean nothing when n
// is zero.
type edgeList struct {
	head, tail, n int32
}

type nodeRec struct {
	NodeInfo
	adj [2]edgeList
}

// edgeRec is an edge and, per direction, the next record in the list it is
// on (meaningless on a list's tail).
type edgeRec struct {
	ev   event.Event
	next [2]int32
}

// Graph is an incrementally built dependency graph.
type Graph struct {
	mu      sync.RWMutex
	nodes   []nodeRec
	edges   []edgeRec
	nodeIdx map[event.ObjID]int32
	edgeIdx map[event.EventID]int32

	start event.Event // the starting-point event (the anomaly alert)
}

// New creates a graph seeded with the starting-point event e0 (paper
// Algorithm 1 line 1: G <- e0). The destination object of e0 gets hop 0 and
// its source hop 1.
func New(e0 event.Event) *Graph {
	g := &Graph{
		nodeIdx: make(map[event.ObjID]int32),
		edgeIdx: make(map[event.EventID]int32),
		start:   e0,
	}
	di, _ := g.reachLocked(e0.Dst(), 0)
	si, _ := g.reachLocked(e0.Src(), 1)
	g.appendEdgeLocked(e0, si, di)
	return g
}

// Start returns the starting-point event.
func (g *Graph) Start() event.Event { return g.start }

// Added reports what one Add call did.
type Added struct {
	NewEdge bool // the edge was inserted (not a duplicate, not over budget)
	NewNode bool // its discovered endpoint was seen for the first time
	// OverBudget: the edge was refused because the discovered endpoint would
	// sit more than hopLimit hops from the starting point.
	OverBudget bool
	// Hop is the discovered endpoint's hop after the insert; for a refused
	// edge, the hop that broke the budget.
	Hop int
	// Edges is the graph's edge count after the call.
	Edges int
}

// Add is the one insert: the whole per-edge conversation under one write
// lock. The known endpoint of ev — its destination when tracking backward,
// its source when forward — must already be a node (it is the object whose
// dependencies were being searched). Unless hopLimit is zero, an edge that
// would put its discovered endpoint beyond hopLimit hops is refused; a
// duplicate is ignored; otherwise the edge is linked in and the discovered
// endpoint's hop is min-updated to hop(known)+1.
func (g *Graph) Add(ev event.Event, forward bool, hopLimit int) (Added, error) {
	known, found := ev.Dst(), ev.Src()
	if forward {
		known, found = found, known
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	ki, ok := g.nodeIdx[known]
	if !ok {
		if forward {
			return Added{}, fmt.Errorf("graph: edge %d departs from unknown node %d", ev.ID, known)
		}
		return Added{}, fmt.Errorf("graph: edge %d arrives at unknown node %d", ev.ID, known)
	}
	hop := g.nodes[ki].Hop + 1
	if hopLimit > 0 && hop > hopLimit {
		return Added{OverBudget: true, Hop: hop, Edges: len(g.edges)}, nil
	}
	if _, dup := g.edgeIdx[ev.ID]; dup {
		return Added{Edges: len(g.edges)}, nil
	}
	fi, existed := g.reachLocked(found, hop)
	if forward {
		g.appendEdgeLocked(ev, ki, fi)
	} else {
		g.appendEdgeLocked(ev, fi, ki)
	}
	return Added{NewEdge: true, NewNode: !existed, Hop: g.nodes[fi].Hop, Edges: len(g.edges)}, nil
}

// AddEdge records a newly discovered backward dependency with no hop budget.
// It returns whether the edge was new, and whether its source object was
// seen for the first time.
func (g *Graph) AddEdge(ev event.Event) (newEdge, newNode bool, err error) {
	a, err := g.Add(ev, false, 0)
	return a.NewEdge, a.NewNode, err
}

// AddForwardEdge mirrors AddEdge for impact tracking: ev's source must
// already be a node, and its destination is the discovered endpoint.
func (g *Graph) AddForwardEdge(ev event.Event) (newEdge, newNode bool, err error) {
	a, err := g.Add(ev, true, 0)
	return a.NewEdge, a.NewNode, err
}

// reachLocked records that node id is reachable in hop hops: an existing
// node's hop is min-updated, a new one is appended with no edges and no
// state. It returns the node's index.
func (g *Graph) reachLocked(id event.ObjID, hop int) (i int32, existed bool) {
	if i, existed = g.nodeIdx[id]; existed {
		if n := &g.nodes[i]; hop < n.Hop {
			n.Hop = hop
		}
		return i, true
	}
	i = int32(len(g.nodes))
	g.nodes = append(g.nodes, nodeRec{NodeInfo: NodeInfo{ID: id, Hop: hop, State: -1}})
	g.nodeIdx[id] = i
	return i, false
}

// appendEdgeLocked appends ev's record and links it at the tail of its
// source node's (index si) out-list and its destination's (di) in-list.
func (g *Graph) appendEdgeLocked(ev event.Event, si, di int32) {
	ei := int32(len(g.edges))
	g.edges = append(g.edges, edgeRec{ev: ev})
	g.edgeIdx[ev.ID] = ei
	for dir, ni := range [2]int32{dirIn: di, dirOut: si} {
		l := &g.nodes[ni].adj[dir]
		if l.n == 0 {
			l.head = ei
		} else {
			g.edges[l.tail].next[dir] = ei
		}
		l.tail = ei
		l.n++
	}
}

// HasEdge reports whether the event is already an edge of the graph.
func (g *Graph) HasEdge(id event.EventID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.edgeIdx[id]
	return ok
}

// Node returns a copy of the bookkeeping for an object, if present.
func (g *Graph) Node(id event.ObjID) (NodeInfo, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, ok := g.nodeIdx[id]
	if !ok {
		return NodeInfo{}, false
	}
	return g.nodes[i].NodeInfo, true
}

// SetState assigns the maintainer state of a node. Unknown nodes are ignored.
func (g *Graph) SetState(id event.ObjID, state int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i, ok := g.nodeIdx[id]; ok {
		g.nodes[i].State = state
	}
}

// ResetStates clears every node's maintainer state to -1. The Refiner calls
// this before re-propagating states after the intermediate points changed.
func (g *Graph) ResetStates() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range g.nodes {
		g.nodes[i].State = -1
	}
}

// NumEdges returns the number of edges; the paper reports dependency-graph
// size as the number of events.
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.edges)
}

// NumNodes returns the number of object nodes.
func (g *Graph) NumNodes() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// MaxHop returns the largest hop among nodes: the graph "diameter" that the
// BDL hop budget bounds.
func (g *Graph) MaxHop() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	max := 0
	for i := range g.nodes {
		if h := g.nodes[i].Hop; h > max {
			max = h
		}
	}
	return max
}

// InEdges returns the events flowing into obj (its discovered backward
// dependencies), in insertion order.
func (g *Graph) InEdges(obj event.ObjID) []event.Event { return g.adjacent(obj, dirIn) }

// OutEdges returns the events flowing out of obj, in insertion order.
func (g *Graph) OutEdges(obj event.ObjID) []event.Event { return g.adjacent(obj, dirOut) }

func (g *Graph) adjacent(obj event.ObjID, dir int) []event.Event {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var l edgeList
	if i, ok := g.nodeIdx[obj]; ok {
		l = g.nodes[i].adj[dir]
	}
	out := make([]event.Event, l.n)
	ei := l.head
	for k := range out {
		e := &g.edges[ei]
		out[k] = e.ev
		ei = e.next[dir]
	}
	return out
}

// Edges returns all edges sorted by event ID (deterministic order for
// output and tests).
func (g *Graph) Edges() []event.Event {
	g.mu.RLock()
	out := make([]event.Event, len(g.edges))
	for i := range g.edges {
		out[i] = g.edges[i].ev
	}
	g.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Nodes returns all node infos sorted by object ID.
func (g *Graph) Nodes() []NodeInfo {
	g.mu.RLock()
	out := make([]NodeInfo, len(g.nodes))
	for i := range g.nodes {
		out[i] = g.nodes[i].NodeInfo
	}
	g.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Retain removes every node not accepted by keep, along with all edges
// touching removed nodes. The starting event's destination node is always
// retained. It returns the number of edges removed. The maintainer uses this
// for final path pruning (paper Section III-A: "APTrace removes the paths
// that do not meet the constraints of the intermediate points").
//
// When anything is removed the surviving edges are re-linked in event-ID
// order, so InEdges/OutEdges then list by event ID.
func (g *Graph) Retain(keep func(event.ObjID) bool) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	gone := make([]bool, len(g.nodes))
	anyGone := false
	for i := range g.nodes {
		if id := g.nodes[i].ID; id != g.start.Dst() && !keep(id) {
			gone[i] = true
			anyGone = true
		}
	}
	if !anyGone {
		return 0
	}
	var kept []event.Event
	for i := range g.edges {
		if ev := g.edges[i].ev; !gone[g.nodeIdx[ev.Src()]] && !gone[g.nodeIdx[ev.Dst()]] {
			kept = append(kept, ev)
		}
	}
	removed := len(g.edges) - len(kept)
	sort.Slice(kept, func(i, j int) bool { return kept[i].ID < kept[j].ID })
	// Rebuild from the survivors: nodes in their old order, edges by event ID.
	old := g.nodes
	g.nodes, g.edges = nil, make([]edgeRec, 0, len(kept))
	g.nodeIdx = make(map[event.ObjID]int32)
	g.edgeIdx = make(map[event.EventID]int32, len(kept))
	for i := range old {
		if !gone[i] {
			at, _ := g.reachLocked(old[i].ID, old[i].Hop)
			g.nodes[at].State = old[i].State
		}
	}
	for _, ev := range kept {
		g.appendEdgeLocked(ev, g.nodeIdx[ev.Src()], g.nodeIdx[ev.Dst()])
	}
	return removed
}
