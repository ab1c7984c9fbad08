package experiments

import (
	"fmt"
	"io"
	"os"
	"time"

	"aptrace/internal/core"
	"aptrace/internal/event"
	"aptrace/internal/explain"
	"aptrace/internal/refiner"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
)

// ExplainResult is the outcome of the decision-flight-recorder experiment:
// every sampled starting event is backtracked twice, once with the recorder
// attached and once without, checking that recording has zero effect on the
// produced graph while explaining all of it.
type ExplainResult struct {
	Samples int
	// GraphsIdentical: for every sample, the recorded run produced exactly
	// the same edge set and modeled elapsed time as the plain run.
	GraphsIdentical bool
	// Nodes / NodesExplained count graph nodes across all recorded runs and
	// how many of them Explain() produced a non-empty justification for
	// (AllNodesExplained is the acceptance bit).
	Nodes             int
	NodesExplained    int
	AllNodesExplained bool
	// PrunedCandidates counts prune-frontier entries — objects excluded
	// with a concrete clause/budget reason — across all samples.
	PrunedCandidates int
	// ExampleExclusion is one concrete exclusion reason (first frontier
	// entry of the first sample that has one).
	ExampleExclusion string
	// Records / Dropped aggregate the recorders' emission stats.
	Records uint64
	Dropped uint64
	// RecordsPerSec is wall-clock emission throughput over the recorded
	// runs; excluded from JSON because wall time is not reproducible.
	RecordsPerSec float64 `json:"-"`
}

// explainPlan compiles the heuristic plan the experiment runs: a wildcard
// start with a where filter and a hop budget, so runs exercise both the
// inclusion and the exclusion emission paths.
func explainPlan() *refiner.Plan {
	p, err := refiner.ParseAndCompile(`backward proc p[exename = "*"] -> *
where file.path != "*.dll" and hop <= 6`)
	if err != nil {
		panic("experiments: explain plan must compile: " + err.Error())
	}
	return p
}

// RunExplain measures the decision flight recorder: zero effect on the graph
// (edge sets and modeled time identical with and without recording), full
// explanation coverage of the result graph, concrete reasons for pruned
// candidates, and recording overhead in records per wall-clock second (to
// stderr, so stdout stays byte-comparable across runs).
func RunExplain(env *Env, cfg Config, w io.Writer) (*ExplainResult, error) {
	events := env.sampleEvents(cfg.Samples, cfg.Seed)

	type xrun struct {
		identical     bool
		nodes         int
		explained     int
		pruned        int
		exampleReason string
		emitted       uint64
		dropped       uint64
		wall          time.Duration
	}
	runs, err := fanOut(env, cfg, events, "explain",
		func(st *store.Store, clk *simclock.Simulated, ev event.Event, lane *explain.Recorder) (xrun, error) {
			// Plain run on the fanOut-provided view.
			x1, err := core.New(st, explainPlan(), cfg.execOptions())
			if err != nil {
				return xrun{}, err
			}
			res1, err := x1.RunUnchecked(ev)
			if err != nil {
				return xrun{}, err
			}

			// Recorded run on a second private view and clock, into the
			// timeline lane's log when there is one.
			clk2 := simclock.NewSimulated(time.Time{})
			v2, err := env.Dataset.Store.View(clk2)
			if err != nil {
				return xrun{}, err
			}
			rec := lane
			if rec == nil {
				rec = explain.New(0, cfg.Telemetry)
			}
			x2, err := core.New(v2, explainPlan(), cfg.laneOptions(rec))
			if err != nil {
				return xrun{}, err
			}
			wall := time.Now()
			res2, err := x2.RunUnchecked(ev)
			if err != nil {
				return xrun{}, err
			}

			r := xrun{wall: time.Since(wall)}
			r.identical = sameEdges(res1.Graph.Edges(), res2.Graph.Edges()) &&
				res1.Elapsed == res2.Elapsed
			for _, n := range res2.Graph.Nodes() {
				r.nodes++
				if !rec.Explain(n.ID).Empty() {
					r.explained++
				}
			}
			frontier := rec.PruneFrontier()
			r.pruned = len(frontier)
			if len(frontier) > 0 {
				r.exampleReason = fmt.Sprintf("%s: %s",
					env.Dataset.Store.Object(frontier[0].Node).Label(), frontier[0].Reason)
			}
			r.emitted, r.dropped = rec.Stats()
			return r, nil
		})
	if err != nil {
		return nil, err
	}

	res := &ExplainResult{Samples: len(events), GraphsIdentical: true}
	var wall time.Duration
	for _, r := range runs {
		res.GraphsIdentical = res.GraphsIdentical && r.identical
		res.Nodes += r.nodes
		res.NodesExplained += r.explained
		res.PrunedCandidates += r.pruned
		if res.ExampleExclusion == "" {
			res.ExampleExclusion = r.exampleReason
		}
		res.Records += r.emitted
		res.Dropped += r.dropped
		wall += r.wall
	}
	res.AllNodesExplained = res.NodesExplained == res.Nodes
	if s := wall.Seconds(); s > 0 {
		res.RecordsPerSec = float64(res.Records) / s
	}

	header(w, "EXPLAIN: Decision Flight Recorder")
	fmt.Fprintf(w, "sampled starting events:       %d (each run twice: recorder off, then on)\n", res.Samples)
	fmt.Fprintf(w, "recording effect on graphs:    %s\n", zeroEffect(res.GraphsIdentical))
	fmt.Fprintf(w, "graph nodes explained:         %d / %d\n", res.NodesExplained, res.Nodes)
	fmt.Fprintf(w, "pruned candidates w/ reason:   %d\n", res.PrunedCandidates)
	if res.ExampleExclusion != "" {
		fmt.Fprintf(w, "example exclusion:             %s\n", res.ExampleExclusion)
	}
	fmt.Fprintf(w, "decision records:              %d (%d overwritten by ring overflow)\n", res.Records, res.Dropped)
	// Wall-clock throughput goes to stderr: stdout must stay byte-identical
	// between serial and parallel invocations.
	fmt.Fprintf(os.Stderr, "explain: %.0f records/sec wall-clock while recording\n", res.RecordsPerSec)
	return res, nil
}

func zeroEffect(identical bool) string {
	if identical {
		return "none (edge sets and modeled time identical)"
	}
	return "DIVERGED — recording changed the analysis"
}

// sameEdges compares two edge lists by event ID, order-insensitively.
func sameEdges(a, b []event.Event) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[event.EventID]bool, len(a))
	for _, e := range a {
		seen[e.ID] = true
	}
	for _, e := range b {
		if !seen[e.ID] {
			return false
		}
	}
	return true
}
