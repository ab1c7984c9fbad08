package experiments

import (
	"fmt"
	"io"
	"time"

	"aptrace/internal/baseline"
	"aptrace/internal/core"
	"aptrace/internal/event"
	"aptrace/internal/graph"
	"aptrace/internal/simclock"
	"aptrace/internal/stats"
	"aptrace/internal/store"
)

// Table2Side is one row of Table II: the inter-update waiting-time
// distribution of one engine.
type Table2Side struct {
	Name          string
	Average, Std  time.Duration
	P90, P95, P99 time.Duration
	Updates       int
	MaxGap        time.Duration
}

// Table2Result is the waiting-time comparison plus the reduction factors the
// paper headlines (15x at p90, 68x at p95, 57x at p99).
type Table2Result struct {
	Baseline, APTrace Table2Side
	ReductionP90      float64
	ReductionP95      float64
	ReductionP99      float64
}

// RunTable2 measures the waiting time between consecutive dependency-graph
// updates over the same random starting events, for the King-Chen baseline
// and for APTrace's execution-window executor, under the identical store and
// cost model. Edges landing at the same instant (one retrieval's batch) are
// one update to the graph; the deltas are taken between distinct update
// timestamps. Runs are capped at cfg.Cap so heavy starting points contribute
// their blocking behaviour without running forever.
func RunTable2(env *Env, cfg Config, w io.Writer) (*Table2Result, error) {
	events := env.sampleEvents(cfg.Samples, cfg.Seed)

	// One fleet job per starting event and engine; each run's distinct
	// update timestamps reduce to deltas on its private clock, so the
	// concatenation below (in sample order) is byte-identical to the old
	// serial loops at any parallelism.
	type run struct {
		deltas  []time.Duration
		updates int
	}
	collect := func(times []time.Time) run {
		times = stats.DistinctTimes(times)
		return run{deltas: stats.Deltas(times), updates: len(times)}
	}

	baseRuns, err := fanOut(env, cfg, events,
		func(st *store.Store, clk *simclock.Simulated, ev event.Event) (run, error) {
			var times []time.Time
			_, err := baseline.Run(st, ev, baseline.Options{
				TimeBudget: cfg.Cap,
				OnUpdate:   func(u graph.Update) { times = append(times, u.At) },
			})
			if err != nil {
				return run{}, err
			}
			return collect(times), nil
		})
	if err != nil {
		return nil, err
	}

	apRuns, err := fanOut(env, cfg, events,
		func(st *store.Store, clk *simclock.Simulated, ev event.Event) (run, error) {
			var times []time.Time
			o := cfg.execOptions()
			o.OnUpdate = func(u graph.Update) { times = append(times, u.At) }
			x, err := core.New(st, wildcardPlan(cfg.Cap), o)
			if err != nil {
				return run{}, err
			}
			if _, err := x.RunUnchecked(ev); err != nil {
				return run{}, err
			}
			return collect(times), nil
		})
	if err != nil {
		return nil, err
	}

	var baseDeltas, apDeltas []time.Duration
	baseUpdates, apUpdates := 0, 0
	for _, r := range baseRuns {
		baseUpdates += r.updates
		baseDeltas = append(baseDeltas, r.deltas...)
	}
	for _, r := range apRuns {
		apUpdates += r.updates
		apDeltas = append(apDeltas, r.deltas...)
	}

	res := &Table2Result{
		Baseline: side("Baseline", baseDeltas, baseUpdates),
		APTrace:  side("APTrace", apDeltas, apUpdates),
	}
	res.ReductionP90 = ratio(res.Baseline.P90, res.APTrace.P90)
	res.ReductionP95 = ratio(res.Baseline.P95, res.APTrace.P95)
	res.ReductionP99 = ratio(res.Baseline.P99, res.APTrace.P99)

	header(w, "Table II: Waiting Time Between Updates")
	fmt.Fprintf(w, "%-10s %9s %9s %9s %9s %9s %9s\n", "", "average", "std", "p90", "p95", "p99", "max")
	for _, s := range []Table2Side{res.Baseline, res.APTrace} {
		fmt.Fprintf(w, "%-10s %9s %9s %9s %9s %9s %9s\n",
			s.Name, fmtDur(s.Average), fmtDur(s.Std), fmtDur(s.P90), fmtDur(s.P95), fmtDur(s.P99), fmtDur(s.MaxGap))
	}
	fmt.Fprintf(w, "\nreduction: p90 %.0fx, p95 %.0fx, p99 %.0fx  (paper: 15x, 68x, 57x)\n",
		res.ReductionP90, res.ReductionP95, res.ReductionP99)
	fmt.Fprintf(w, "(paper absolute values, seconds — baseline: avg 7, std 210, p90 58, p95 613, p99 1149; APTrace: avg 2, std 20, p90 4, p95 9, p99 19)\n")
	return res, nil
}

func side(name string, deltas []time.Duration, updates int) Table2Side {
	xs := stats.Durations(deltas)
	sum := stats.Summarize(xs)
	ps := stats.Percentiles(xs, 0.90, 0.95, 0.99)
	toDur := func(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }
	return Table2Side{
		Name:    name,
		Average: toDur(sum.Mean),
		Std:     toDur(sum.Std),
		P90:     toDur(ps[0]),
		P95:     toDur(ps[1]),
		P99:     toDur(ps[2]),
		MaxGap:  toDur(sum.Max),
		Updates: updates,
	}
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}
