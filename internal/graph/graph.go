// Package graph implements the dependency (tracking) graph that backtracking
// analysis produces: nodes are system objects, edges are system events, and
// edge direction follows data flow (paper Section II).
//
// The graph is built incrementally by the executor as it discovers backward
// dependencies, and is consulted by the Dependency Graph Maintainer for
// state propagation and final path pruning.
//
// Storage is two paged logs, one record per node and one per edge, that grow
// a page at a time and are never copied, with one ObjID→slot index over the
// nodes. A node's in- and out-edges are intrusive singly linked lists
// threaded through the edge records by number (head/tail/length on the node,
// next on the edge), so accepting an edge costs two record writes and
// allocates nothing but a page now and then. There is no index over the
// edges: the writer adds each event at most once (the executor's windows
// partition every node's history, so no query returns an event twice), and
// the graph takes its word for it.
//
// The graph has one writer — the run loop, or whoever holds its place while
// it is parked or over (the maintainer's recalculation, final pruning) — and
// any number of concurrent readers. Every public read copies values out under
// the read lock. The writer's own reads (Slot, State, and what Add checks
// before it inserts) take no lock: nothing changes except by its hand.
// It works in node slots, which Add hands out and which stay put until Retain
// removes something (Epoch counts those). Two writers are not supported.
package graph

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/pages"
)

// Update is one responsive progress report: an edge just landed in the
// dependency graph. At carries the clock timestamp (simulated or real) that
// the responsiveness experiments measure. The executor stamps an update with
// the clock as it read after the last charging call before it (the window
// query, a where filter, a chain matcher), so on a real clock the updates
// between two such calls share one instant. Both APTrace's executor and the
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

// index maps an ID to its record's number in a log: open addressing with
// linear probing over a power-of-two table kept at most half full. A miss
// returns the cell the key belongs in, so look-up-then-insert walks once,
// and growing is one pass over a flat array.
type index struct {
	cells []indexCell
	n     int
	shift uint // 64 - log2(len(cells)): Fibonacci hashing keeps the top bits
}

type indexCell struct {
	key uint64
	ref int32 // record number + 1; 0 marks an empty cell
}

func newIndex() index { return index{cells: make([]indexCell, 32), shift: 64 - 5} }

// find returns key's record number, or -1 and the cell put would fill.
func (x *index) find(key uint64) (cell int, rec int32) {
	mask := len(x.cells) - 1
	for i := int(key * 0x9E3779B97F4A7C15 >> x.shift); ; i = (i + 1) & mask {
		if c := &x.cells[i]; c.ref == 0 || c.key == key {
			return i, c.ref - 1
		}
	}
}

// put fills the empty cell find just returned for key.
func (x *index) put(cell int, key uint64, rec int32) {
	x.cells[cell] = indexCell{key, rec + 1}
	if x.n++; 2*x.n <= len(x.cells) {
		return
	}
	old := x.cells
	x.cells, x.shift = make([]indexCell, 2*len(old)), x.shift-1
	for _, c := range old {
		if c.ref != 0 {
			at, _ := x.find(c.key)
			x.cells[at] = c
		}
	}
}

// Graph is an incrementally built dependency graph.
type Graph struct {
	mu      sync.RWMutex
	nodes   pages.Pages[nodeRec]
	edges   pages.Pages[edgeRec]
	nNodes  int32
	nEdges  int32
	nodeIdx index // ObjID → node slot
	epoch   int   // times Retain has renumbered the slots

	start event.Event // the starting-point event (the anomaly alert)
}

// New creates a graph seeded with the starting-point event e0 (paper
// Algorithm 1 line 1: G <- e0). The destination object of e0 gets hop 0 and
// its source hop 1.
func New(e0 event.Event) *Graph {
	g := &Graph{nodeIdx: newIndex(), start: e0}
	di := g.reachLocked(e0.Dst(), 0)
	si := g.reachLocked(e0.Src(), 1)
	g.appendEdgeLocked(&e0, si, di)
	return g
}

// Start returns the starting-point event.
func (g *Graph) Start() event.Event { return g.start }

// Added reports what one Add call did.
type Added struct {
	NewNode bool // its discovered endpoint was seen for the first time
	// OverBudget: the edge was refused because the discovered endpoint would
	// sit more than hopLimit hops from the starting point.
	OverBudget bool
	// Slot is the discovered endpoint's node slot, when the edge was inserted.
	Slot int32
	// Hop is the discovered endpoint's hop after the insert; for a refused
	// edge, the hop that broke the budget.
	Hop int
	// Edges is the graph's edge count after the call.
	Edges int
}

// Add is the one insert, for the writer only. known is the slot of the
// endpoint of ev already in the graph — its destination when tracking
// backward, its source when forward: the object whose dependencies were being
// searched. Unless hopLimit is zero, an edge that would put its discovered
// endpoint beyond hopLimit hops is refused; otherwise the edge is linked in
// and the discovered endpoint's hop is min-updated to hop(known)+1. Add does
// not look for ev among the edges: the caller guarantees that no event is
// added twice. The budget check reads without the lock; the insert is one
// short critical section.
func (g *Graph) Add(ev *event.Event, known int32, forward bool, hopLimit int) Added {
	found := ev.Src()
	if forward {
		found = ev.Dst()
	}
	hop := g.nodes.Get(int(known)).Hop + 1
	if hopLimit > 0 && hop > hopLimit {
		return Added{OverBudget: true, Hop: hop, Edges: int(g.nEdges)}
	}
	nodes := g.nNodes
	g.mu.Lock()
	fi := g.reachLocked(found, hop)
	if forward {
		g.appendEdgeLocked(ev, known, fi)
	} else {
		g.appendEdgeLocked(ev, fi, known)
	}
	g.mu.Unlock()
	return Added{NewNode: g.nNodes > nodes, Slot: fi, Hop: g.nodes.Get(int(fi)).Hop, Edges: int(g.nEdges)}
}

// AddEdge records a newly discovered backward dependency with no hop budget.
// ev must not be an edge yet (see Add). It returns whether its source object
// was seen for the first time.
func (g *Graph) AddEdge(ev event.Event) (newNode bool, err error) {
	known, ok := g.Slot(ev.Dst())
	if !ok {
		return false, fmt.Errorf("graph: edge %d arrives at unknown node %d", ev.ID, ev.Dst())
	}
	return g.Add(&ev, known, false, 0).NewNode, nil
}

// reachLocked records that node id is reachable in hop hops: an existing
// node's hop is min-updated, a new one is appended with no edges and no
// state. It returns the node's slot.
func (g *Graph) reachLocked(id event.ObjID, hop int) int32 {
	cell, i := g.nodeIdx.find(uint64(id))
	if i >= 0 {
		if n := g.nodes.Get(int(i)); hop < n.Hop {
			n.Hop = hop
		}
		return i
	}
	i = g.nNodes
	*g.nodes.At(int(i)) = nodeRec{NodeInfo: NodeInfo{ID: id, Hop: hop, State: -1}}
	g.nNodes++
	g.nodeIdx.put(cell, uint64(id), i)
	return i
}

// appendEdgeLocked appends ev's record and links it at the tail of its
// source node's (slot si) out-list and its destination's (di) in-list.
func (g *Graph) appendEdgeLocked(ev *event.Event, si, di int32) {
	ei := g.nEdges
	*g.edges.At(int(ei)) = edgeRec{ev: *ev}
	g.nEdges++
	for dir, ni := range [2]int32{dirIn: di, dirOut: si} {
		l := &g.nodes.Get(int(ni)).adj[dir]
		if l.n == 0 {
			l.head = ei
		} else {
			g.edges.Get(int(l.tail)).next[dir] = ei
		}
		l.tail = ei
		l.n++
	}
}

// Slot returns the node slot of an object, if it is a node. Writer only.
func (g *Graph) Slot(id event.ObjID) (int32, bool) {
	_, i := g.nodeIdx.find(uint64(id))
	return i, i >= 0
}

// State returns the maintainer state of the node in slot. Writer only.
func (g *Graph) State(slot int32) int { return g.nodes.Get(int(slot)).State }

// Epoch counts the Retain calls that removed something, each of which
// renumbers the node slots: a slot is good for as long as Epoch stands still.
// Writer only.
func (g *Graph) Epoch() int { return g.epoch }

// Node returns a copy of the bookkeeping for an object, if present.
func (g *Graph) Node(id event.ObjID) (NodeInfo, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, ok := g.Slot(id)
	if !ok {
		return NodeInfo{}, false
	}
	return g.nodes.Get(int(i)).NodeInfo, true
}

// SetState assigns the maintainer state of a node. Unknown nodes are ignored.
func (g *Graph) SetState(id event.ObjID, state int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i, ok := g.Slot(id); ok {
		g.nodes.Get(int(i)).State = state
	}
}

// ResetStates clears every node's maintainer state to -1. The Refiner calls
// this before re-propagating states after the intermediate points changed.
func (g *Graph) ResetStates() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := 0; i < int(g.nNodes); i++ {
		g.nodes.Get(i).State = -1
	}
}

// NumEdges returns the number of edges; the paper reports dependency-graph
// size as the number of events.
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return int(g.nEdges)
}

// NumNodes returns the number of object nodes.
func (g *Graph) NumNodes() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return int(g.nNodes)
}

// MaxHop returns the largest hop among nodes: the graph "diameter" that the
// BDL hop budget bounds.
func (g *Graph) MaxHop() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	max := 0
	for i := 0; i < int(g.nNodes); i++ {
		if h := g.nodes.Get(i).Hop; h > max {
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
	if i, ok := g.Slot(obj); ok {
		l = g.nodes.Get(int(i)).adj[dir]
	}
	out := make([]event.Event, l.n)
	ei := l.head
	for k := range out {
		e := g.edges.Get(int(ei))
		out[k] = e.ev
		ei = e.next[dir]
	}
	return out
}

// Edges returns all edges sorted by event ID (deterministic order for
// output and tests).
func (g *Graph) Edges() []event.Event {
	g.mu.RLock()
	out := make([]event.Event, g.nEdges)
	for i := range out {
		out[i] = g.edges.Get(i).ev
	}
	g.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Nodes returns all node infos sorted by object ID.
func (g *Graph) Nodes() []NodeInfo {
	g.mu.RLock()
	out := make([]NodeInfo, g.nNodes)
	for i := range out {
		out[i] = g.nodes.Get(i).NodeInfo
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
// When anything is removed the surviving nodes are renumbered (Epoch moves)
// and the surviving edges re-linked in event-ID order, so InEdges/OutEdges
// then list by event ID.
func (g *Graph) Retain(keep func(event.ObjID) bool) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	var nodes []NodeInfo
	for i := 0; i < int(g.nNodes); i++ {
		if n := g.nodes.Get(i).NodeInfo; n.ID == g.start.Dst() || keep(n.ID) {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == int(g.nNodes) {
		return 0
	}
	// Rebuild from the survivors: nodes in their old order, edges by event ID.
	oldEdges, had := g.edges, int(g.nEdges)
	g.nodes, g.edges, g.nNodes, g.nEdges = pages.Pages[nodeRec]{}, pages.Pages[edgeRec]{}, 0, 0
	g.nodeIdx = newIndex()
	g.epoch++
	for _, n := range nodes {
		g.nodes.Get(int(g.reachLocked(n.ID, n.Hop))).State = n.State
	}
	type survivor struct {
		ev     *event.Event
		si, di int32
	}
	var kept []survivor
	for i := 0; i < had; i++ {
		ev := &oldEdges.Get(i).ev
		si, srcKept := g.Slot(ev.Src())
		di, dstKept := g.Slot(ev.Dst())
		if srcKept && dstKept {
			kept = append(kept, survivor{ev, si, di})
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].ev.ID < kept[j].ev.ID })
	for _, k := range kept {
		g.appendEdgeLocked(k.ev, k.si, k.di)
	}
	return had - len(kept)
}
