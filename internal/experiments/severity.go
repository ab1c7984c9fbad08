package experiments

import (
	"fmt"
	"io"
	"time"

	"aptrace/internal/baseline"
	"aptrace/internal/event"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
)

// SeverityResult is the outcome of the Section IV-B1 experiment: run
// unoptimized backtracking from random starting events and measure how often
// dependency explosion bites.
type SeverityResult struct {
	Samples    int
	Over20Min  int // executions longer than 20 minutes
	HitCap     int // executions that reached the cap
	Over1000   int // graphs with > 1000 events
	Over2500   int
	Over5000   int
	MaxGraph   int
	Elapsed    []time.Duration // per-sample execution time
	GraphSizes []int
}

// RunSeverity executes the experiment: cfg.Samples random events, baseline
// backtracking, cfg.Cap execution cap. Runs fan out across cfg.Parallel
// workers, one store view each; aggregation stays in sample order.
func RunSeverity(env *Env, cfg Config, w io.Writer) (*SeverityResult, error) {
	events := env.sampleEvents(cfg.Samples, cfg.Seed)

	type run struct {
		elapsed   time.Duration
		size      int
		completed bool
	}
	runs, err := fanOut(env, cfg, events,
		func(st *store.Store, clk *simclock.Simulated, ev event.Event) (run, error) {
			start := clk.Now()
			out, err := baseline.Run(st, ev, baseline.Options{TimeBudget: cfg.Cap})
			if err != nil {
				return run{}, err
			}
			return run{
				elapsed:   clk.Now().Sub(start),
				size:      out.Graph.NumEdges(),
				completed: out.Completed,
			}, nil
		})
	if err != nil {
		return nil, err
	}

	res := &SeverityResult{Samples: len(events)}
	for _, r := range runs {
		res.Elapsed = append(res.Elapsed, r.elapsed)
		res.GraphSizes = append(res.GraphSizes, r.size)
		if r.elapsed > 20*time.Minute {
			res.Over20Min++
		}
		if !r.completed {
			res.HitCap++
		}
		if r.size > 1000 {
			res.Over1000++
		}
		if r.size > 2500 {
			res.Over2500++
		}
		if r.size > 5000 {
			res.Over5000++
		}
		if r.size > res.MaxGraph {
			res.MaxGraph = r.size
		}
	}

	header(w, "Severity of Dependency Explosion (Section IV-B1)")
	fmt.Fprintf(w, "random starting events:        %d\n", res.Samples)
	fmt.Fprintf(w, "execution cap:                 %s\n", fmtDur(cfg.Cap))
	fmt.Fprintf(w, "executions > 20 minutes:       %s   (paper: ~50%%)\n", pct(res.Over20Min, res.Samples))
	fmt.Fprintf(w, "executions hitting the cap:    %s   (paper: 36%%)\n", pct(res.HitCap, res.Samples))
	fmt.Fprintf(w, "graphs > 1000 events:          %s   (paper: >36%%)\n", pct(res.Over1000, res.Samples))
	fmt.Fprintf(w, "graphs > 2500 events:          %s   (paper: 26%%)\n", pct(res.Over2500, res.Samples))
	fmt.Fprintf(w, "graphs > 5000 events:          %s   (paper: 17%%)\n", pct(res.Over5000, res.Samples))
	fmt.Fprintf(w, "largest dependency graph:      %d events (paper: 35,288)\n", res.MaxGraph)
	return res, nil
}
