// Package baseline implements the classic execute-to-complete backtracking
// analysis of King & Chen ("Backtracking Intrusions", SOSP 2003), the
// comparison system used throughout the paper's evaluation.
//
// The baseline differs from APTrace's executor in exactly one respect: when
// it explores a node, it issues a single monolithic query over the node's
// entire backward history instead of partitioned execution windows. On
// heavy-hitter objects that one query examines enormous numbers of rows, so
// the analysis blocks for a long time between dependency-graph updates —
// the behaviour quantified in Table II. Everything else (graph construction,
// optional where-filtering, budgets) matches the executor, so measured
// differences are attributable to execution-window partitioning alone.
package baseline

import (
	"errors"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/graph"
	"aptrace/internal/refiner"
	"aptrace/internal/store"
)

// Options configure a baseline run.
type Options struct {
	// TimeBudget stops the run after the given (clock) duration; zero
	// means run to completion. It plays the role of the experiment's
	// execution time limit, checked between node explorations — the
	// baseline cannot interrupt a monolithic query in flight, which is
	// precisely its weakness.
	TimeBudget time.Duration
	// Plan optionally applies BDL heuristics (where filter, host
	// constraints, hop budget). Nil runs the pure King-Chen analysis.
	Plan *refiner.Plan
	// OnUpdate, if set, is invoked for every edge added, timestamped with
	// the store's clock. Under the baseline, all edges discovered by one
	// monolithic query carry (nearly) the same timestamp, separated from
	// the next batch by the full cost of the next query.
	OnUpdate func(graph.Update)
}

// Result summarizes a baseline run.
type Result struct {
	Graph     *graph.Graph
	Completed bool // false if the time budget expired first
	Updates   int
	Elapsed   time.Duration
	Queries   int // monolithic queries issued (one per explored node)
}

// Run performs execute-to-complete backtracking from the alert event.
func Run(st *store.Store, alert event.Event, opts Options) (*Result, error) {
	if !st.Sealed() {
		return nil, store.ErrNotSealed
	}
	min, max, ok := st.TimeRange()
	if !ok {
		return nil, errors.New("baseline: store is empty")
	}
	from, to := min, max+1
	var hopLimit int
	if opts.Plan != nil {
		from, to = opts.Plan.Range(min, max)
		hopLimit = opts.Plan.HopBudget
	}
	clk := st.Clock()
	start := clk.Now()

	g := graph.New(alert)
	res := &Result{Graph: g, Completed: true}

	// Work list of (object, exploration upper bound). Each object is
	// explored once, over its entire backward history in one query.
	type item struct {
		obj event.ObjID
		te  int64
	}
	explored := make(map[event.ObjID]bool)
	dropped := make(map[event.ObjID]bool)
	queue := []item{{alert.Src(), alert.Time}}
	explored[alert.Src()] = true
	var deps []event.Event // reused across every monolithic query of the run

	for len(queue) > 0 {
		if opts.TimeBudget > 0 && clk.Now().Sub(start) >= opts.TimeBudget {
			res.Completed = false
			break
		}
		it := queue[0]
		queue = queue[1:]

		te := it.te
		if te > to {
			te = to
		}
		// The monolithic query: the node's whole backward history.
		var err error
		deps, err = st.AppendBackward(deps[:0], it.obj, from, te)
		if err != nil {
			return nil, err
		}
		res.Queries++
		for _, dep := range deps {
			// Each object's history is queried once (explored), and an event
			// flows into one object, so only the alert edge can come back.
			if dep.ID == alert.ID {
				continue
			}
			src := dep.Src()
			if dropped[src] {
				continue
			}
			if opts.Plan != nil {
				if !opts.Plan.HostAllowed(st.Object(dep.Subject).Host) ||
					!opts.Plan.HostAllowed(st.Object(dep.Object).Host) {
					continue
				}
				if opts.Plan.Where != nil {
					keep, err := opts.Plan.Where.Keep(dep, src, st, from, to)
					if err != nil {
						return nil, err
					}
					if !keep {
						dropped[src] = true
						continue
					}
				}
				if hopLimit > 0 {
					if dstNode, ok := g.Node(dep.Dst()); ok && dstNode.Hop+1 > hopLimit {
						continue
					}
				}
			}
			if _, err := g.AddEdge(dep); err != nil {
				return nil, err
			}
			res.Updates++
			if opts.OnUpdate != nil {
				opts.OnUpdate(graph.Update{Event: dep, At: clk.Now(), Edges: g.NumEdges()})
			}
			if !explored[src] {
				explored[src] = true
				queue = append(queue, item{src, dep.Time})
			}
		}
	}
	res.Elapsed = clk.Now().Sub(start)
	return res, nil
}
