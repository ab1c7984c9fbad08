package experiments

import (
	"fmt"
	"io"
	"time"

	"aptrace/internal/core"
	"aptrace/internal/event"
	"aptrace/internal/graph"
	"aptrace/internal/simclock"
	"aptrace/internal/stats"
	"aptrace/internal/store"
)

// AblationRow summarizes one executor variant's responsiveness over the
// sample set.
type AblationRow struct {
	Name        string
	AvgGap      time.Duration
	P99Gap      time.Duration
	MaxGap      time.Duration
	FirstUpdate time.Duration // mean time to the first update
	Windows     int           // total window queries processed
}

// AblationResult is a set of variant rows for comparison.
type AblationResult struct {
	Rows []AblationRow
}

// RunAblationK sweeps the window count k, quantifying the paper's "user
// configurable parameter k" (the teams used 8): too few windows behave like
// the monolithic baseline, too many waste per-query overhead.
func RunAblationK(env *Env, cfg Config, w io.Writer) (*AblationResult, error) {
	res := &AblationResult{}
	for _, k := range []int{1, 2, 4, 8, 16} {
		row, err := runVariant(env, cfg, fmt.Sprintf("k=%d", k), core.Options{Windows: k})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	printAblation(w, "Ablation: Window Count k", res)
	return res, nil
}

// RunAblationPolicy compares the design choices DESIGN.md calls out:
// geometric vs uniform window lengths, priority vs FIFO queueing, and
// bounded-retrieval re-splitting on vs off.
func RunAblationPolicy(env *Env, cfg Config, w io.Writer) (*AblationResult, error) {
	variants := []struct {
		name string
		opts core.Options
	}{
		{"geometric+priority (APTrace)", core.Options{Windows: cfg.Windows}},
		{"uniform windows", core.Options{Windows: cfg.Windows, UniformWindows: true}},
		{"fifo queue", core.Options{Windows: cfg.Windows, FIFOQueue: true}},
		{"no re-splitting", core.Options{Windows: cfg.Windows, NoSplit: true}},
	}
	res := &AblationResult{}
	for _, v := range variants {
		row, err := runVariant(env, cfg, v.name, v.opts)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	printAblation(w, "Ablation: Partitioning and Queue Policy", res)
	return res, nil
}

func runVariant(env *Env, cfg Config, name string, opts core.Options) (AblationRow, error) {
	events := env.sampleEvents(cfg.Samples, cfg.Seed)

	type run struct {
		deltas  []time.Duration
		first   time.Duration
		updated bool
		windows int
	}
	runs, err := fanOut(env, cfg, events,
		func(st *store.Store, clk *simclock.Simulated, ev event.Event) (run, error) {
			start := clk.Now()
			var times []time.Time
			o := opts
			o.OnUpdate = func(u graph.Update) { times = append(times, u.At) }
			x, err := core.New(st, wildcardPlan(cfg.Cap), o)
			if err != nil {
				return run{}, err
			}
			out, err := x.RunUnchecked(ev)
			if err != nil {
				return run{}, err
			}
			times = stats.DistinctTimes(times)
			r := run{deltas: stats.Deltas(times), windows: out.Windows}
			if len(times) > 0 {
				r.first = times[0].Sub(start)
				r.updated = true
			}
			return r, nil
		})
	if err != nil {
		return AblationRow{}, err
	}

	var deltas []time.Duration
	var firsts []time.Duration
	windows := 0
	for _, r := range runs {
		windows += r.windows
		if r.updated {
			firsts = append(firsts, r.first)
		}
		deltas = append(deltas, r.deltas...)
	}
	xs := stats.Durations(deltas)
	sum := stats.Summarize(xs)
	p99 := stats.Quantile(xs, 0.99)
	fsum := stats.Summarize(stats.Durations(firsts))
	toDur := func(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }
	return AblationRow{
		Name:        name,
		AvgGap:      toDur(sum.Mean),
		P99Gap:      toDur(p99),
		MaxGap:      toDur(sum.Max),
		FirstUpdate: toDur(fsum.Mean),
		Windows:     windows,
	}, nil
}

func printAblation(w io.Writer, title string, res *AblationResult) {
	header(w, title)
	fmt.Fprintf(w, "%-30s %9s %9s %9s %12s %9s\n", "variant", "avg gap", "p99 gap", "max gap", "first update", "windows")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-30s %9s %9s %9s %12s %9d\n",
			r.Name, fmtDur(r.AvgGap), fmtDur(r.P99Gap), fmtDur(r.MaxGap), fmtDur(r.FirstUpdate), r.Windows)
	}
}
