// Package maintainer implements the Dependency Graph Maintainer
// (paper Section III-B2): the state-propagation algorithm that lets the
// executor prioritize search directions matching the tracking statement's
// node chain n1 -> n2 -> ... -> nk, and the final path pruning that removes
// paths not passing through the declared intermediate points.
//
// State encoding: the starting point's node holds state 0; a node matching
// chain matcher j, reached from a node with state j, holds state j+1. The
// "full" state equals the chain length: every intermediate (and, unless the
// end is a wildcard, the end point) has been matched along some path.
package maintainer

import (
	"aptrace/internal/event"
	"aptrace/internal/graph"
	"aptrace/internal/refiner"
)

// Maintainer propagates tracking-statement states across a dependency graph.
// It is direction-aware: in backward (provenance) mode the chain advances
// across in-edges (each new node is an event's flow source); in forward
// (impact) mode it advances across out-edges.
type Maintainer struct {
	plan *refiner.Plan
	env  refiner.Env
	// from/to bound computed-attribute queries issued by node matchers.
	from, to int64
	fwd      bool
}

// New builds a maintainer for a compiled plan. from/to is the resolved
// analysis time range. The tracking direction comes from the plan.
func New(plan *refiner.Plan, env refiner.Env, from, to int64) *Maintainer {
	return &Maintainer{plan: plan, env: env, from: from, to: to, fwd: plan.Forward}
}

// currSucc returns the (already known, newly discovered) endpoints of an
// exploration edge under the maintainer's direction.
func (m *Maintainer) currSucc(e *event.Event) (curr, succ event.ObjID) {
	if m.fwd {
		return e.Src(), e.Dst()
	}
	return e.Dst(), e.Src()
}

// explorationEdges returns the edges through which new nodes were discovered
// from id: in-edges backward, out-edges forward.
func (m *Maintainer) explorationEdges(g *graph.Graph, id event.ObjID) []event.Event {
	if m.fwd {
		return g.OutEdges(id)
	}
	return g.InEdges(id)
}

// FullState is the state index meaning "matched the whole declared chain".
func (m *Maintainer) FullState() int { return len(m.plan.Chain) }

// Seed assigns the starting state to the alert's destination node.
// Call once after graph.New.
func (m *Maintainer) Seed(g *graph.Graph) {
	g.SetState(g.Start().Dst(), 0)
	// The alert edge itself may already satisfy the first chain pattern
	// (its source is the first explored node). Seed propagation failures
	// only suppress prioritization; the graph stays correct. Matching errors
	// resurface on Recalculate.
	start := g.Start()
	_ = m.OnEdge(g, &start)
}

// OnEdge propagates state across a newly added edge e: if the known node
// holds state s and the newly discovered node matches chain pattern s, the
// new node is promoted to state s+1, cascading through already-known edges.
// e is only read.
func (m *Maintainer) OnEdge(g *graph.Graph, e *event.Event) error {
	if len(m.plan.Chain) == 0 {
		return nil // no pattern to advance: the graph is not even read
	}
	currID, succID := m.currSucc(e)
	curr, ok := g.Node(currID)
	if !ok || curr.State < 0 || curr.State >= len(m.plan.Chain) {
		return nil
	}
	succ, ok := g.Node(succID)
	if !ok {
		return nil
	}
	match, err := m.plan.Chain[curr.State].Match(*e, succID, m.env, m.from, m.to)
	if err != nil {
		return err
	}
	if !match || succ.State >= curr.State+1 {
		return nil
	}
	g.SetState(succID, curr.State+1)
	// Cascade: the promoted node's already-discovered neighbours may now
	// match the next pattern.
	next := m.explorationEdges(g, succID)
	for i := range next {
		if err := m.OnEdge(g, &next[i]); err != nil {
			return err
		}
	}
	return nil
}

// Recalculate clears all states and re-propagates from the starting point
// over the whole explored graph. The Refiner triggers this after the
// intermediate points changed: the cached graph is reused, only the states
// are recomputed (much faster than re-querying the database).
func (m *Maintainer) Recalculate(g *graph.Graph) error {
	g.ResetStates()
	g.SetState(g.Start().Dst(), 0)
	// Breadth-first over exploration edges, promoting states monotonically.
	queue := []event.ObjID{g.Start().Dst()}
	for len(queue) > 0 {
		curr := queue[0]
		queue = queue[1:]
		edges := m.explorationEdges(g, curr)
		for i := range edges {
			e := &edges[i]
			_, succID := m.currSucc(e)
			before, _ := g.Node(succID)
			if err := m.OnEdge(g, e); err != nil {
				return err
			}
			after, _ := g.Node(succID)
			if after.State != before.State {
				queue = append(queue, succID)
			}
		}
	}
	return nil
}

// Prune removes the paths that do not satisfy the tracking statement's
// intermediate/end points (paper Section III-A: applied once backtracking is
// done). It returns the number of edges removed.
//
// Nodes are kept iff they lie on a start -> ... -> full-state path; when the
// end point is the wildcard "*", everything discovered upstream of a
// full-state node is also kept (the wildcard accepts any continuation).
// With an empty chain there is nothing to prune.
func (m *Maintainer) Prune(g *graph.Graph) int {
	full := m.FullState()
	if full == 0 {
		return 0
	}
	keep := make(map[event.ObjID]bool)

	// Collect full-state nodes.
	var fullNodes []event.ObjID
	for _, n := range g.Nodes() {
		if n.State >= full {
			fullNodes = append(fullNodes, n.ID)
		}
	}

	// Walk the chain back towards the start from full-state nodes: a node
	// with state s was promoted through an exploration edge from a node
	// with state s-1.
	type nodeState struct {
		id event.ObjID
		s  int
	}
	seen := make(map[nodeState]bool)
	stack := make([]nodeState, 0, len(fullNodes))
	for _, id := range fullNodes {
		stack = append(stack, nodeState{id, full})
	}
	promotedFrom := func(id event.ObjID) []event.Event {
		if m.fwd {
			return g.InEdges(id) // forward exploration arrives via in-edges
		}
		return g.OutEdges(id)
	}
	for len(stack) > 0 {
		ns := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[ns] {
			continue
		}
		seen[ns] = true
		keep[ns.id] = true
		if ns.s == 0 {
			continue
		}
		for _, e := range promotedFrom(ns.id) {
			prevID, _ := m.currSucc(&e)
			d, ok := g.Node(prevID)
			if !ok || d.State < ns.s-1 {
				continue
			}
			match, err := m.plan.Chain[ns.s-1].Match(e, ns.id, m.env, m.from, m.to)
			if err != nil || !match {
				continue
			}
			stack = append(stack, nodeState{prevID, ns.s - 1})
		}
	}

	// Wildcard end: the continuation beyond a full-prefix node is part of
	// every accepted path — keep its exploration closure.
	if m.plan.EndWildcard {
		up := append([]event.ObjID(nil), fullNodes...)
		for len(up) > 0 {
			id := up[len(up)-1]
			up = up[:len(up)-1]
			for _, e := range m.explorationEdges(g, id) {
				_, succID := m.currSucc(&e)
				if !keep[succID] {
					keep[succID] = true
					up = append(up, succID)
				}
			}
		}
	}
	return g.Retain(func(id event.ObjID) bool { return keep[id] })
}
