package graph

import (
	"sort"

	"aptrace/internal/event"
)

// PathFromStart returns a shortest edge path (by hop count) connecting the
// starting point's node to target, following the analysis direction:
// backward analyses walk in-edges (towards causes), forward analyses walk
// out-edges (towards impact). The returned events are ordered from the
// starting point outward; ok is false if target is unreachable.
//
// Analysts use this to display the causal chain once the penetration point
// is found — the spine of Figure 2 without the grey areas.
func PathFromStart(g *Graph, target event.ObjID, forward bool) ([]event.Event, bool) {
	origin := g.Start().Dst()
	if origin == target {
		return nil, true
	}
	type hopEdge struct {
		prev event.ObjID
		via  event.Event
	}
	visited := map[event.ObjID]hopEdge{origin: {}}
	queue := []event.ObjID{origin}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		var edges []event.Event
		if forward {
			edges = g.OutEdges(cur)
		} else {
			edges = g.InEdges(cur)
		}
		for _, e := range edges {
			next := e.Src()
			if forward {
				next = e.Dst()
			}
			if _, seen := visited[next]; seen {
				continue
			}
			visited[next] = hopEdge{prev: cur, via: e}
			if next == target {
				// Reconstruct.
				var path []event.Event
				for at := target; at != origin; {
					he := visited[at]
					path = append(path, he.via)
					at = he.prev
				}
				// Reverse into start-outward order.
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path, true
			}
			queue = append(queue, next)
		}
	}
	return nil, false
}

// Degree is a node plus its fan-in inside the graph, for hot-spot reporting.
type Degree struct {
	ID event.ObjID
	In int // discovered dependencies (in-edges) of the node
}

// TopFanIn returns the n nodes with the most in-edges inside the explored
// graph, descending. These are the nodes responsible for dependency
// explosion — the first candidates for exclusion heuristics.
func TopFanIn(g *Graph, n int) []Degree {
	g.mu.RLock()
	out := make([]Degree, 0, g.nNodes)
	for i := 0; i < int(g.nNodes); i++ {
		if rec := g.nodes.Get(i); rec.adj[dirIn].n > 0 {
			out = append(out, Degree{ID: rec.ID, In: int(rec.adj[dirIn].n)})
		}
	}
	g.mu.RUnlock()
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
