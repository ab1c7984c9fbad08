package experiments

import (
	"fmt"
	"io"
	"time"

	"aptrace/internal/baseline"
	"aptrace/internal/event"
	"aptrace/internal/graph"
	"aptrace/internal/simclock"
	"aptrace/internal/stats"
	"aptrace/internal/store"
)

// Fig4Result holds, for each time-limit threshold k (minutes), the
// distribution of dependency-graph sizes across the sampled starting events
// — the box plot of Figure 4 — plus the two spread statistics Section IV-B2
// quotes (largest/smallest and top-10%/bottom-10% ratios, averaged over k).
type Fig4Result struct {
	Minutes    []int
	Summaries  []stats.Summary // size distribution at each threshold
	MeanMaxMin float64         // average over k of max/min (nonzero sizes)
	MeanTopBot float64         // average over k of top-decile/bottom-decile
}

// RunFig4 measures graph size as a function of the execution time limit.
// Instead of re-running each sample 30 times, each sample runs once with the
// largest budget while recording the graph-growth curve; the size at
// threshold k is read off the curve (the baseline is deterministic, so this
// is exact).
func RunFig4(env *Env, cfg Config, w io.Writer) (*Fig4Result, error) {
	const maxMinutes = 30
	events := env.sampleEvents(cfg.Samples, cfg.Seed)

	type point struct {
		at   time.Duration
		size int
	}
	curves, err := fanOut(env, cfg, events,
		func(st *store.Store, clk *simclock.Simulated, ev event.Event) ([]point, error) {
			start := clk.Now()
			var curve []point
			_, err := baseline.Run(st, ev, baseline.Options{
				TimeBudget: maxMinutes * time.Minute,
				OnUpdate: func(u graph.Update) {
					curve = append(curve, point{u.At.Sub(start), u.Edges})
				},
			})
			return curve, err
		})
	if err != nil {
		return nil, err
	}

	// sizes[k][i] = graph size of sample i under a (k+1)-minute limit.
	sizes := make([][]float64, maxMinutes)
	for k := range sizes {
		sizes[k] = make([]float64, len(events))
	}
	for i, curve := range curves {
		for k := 0; k < maxMinutes; k++ {
			limit := time.Duration(k+1) * time.Minute
			size := 1 // the alert edge itself
			for _, p := range curve {
				if p.at <= limit {
					size = p.size
				} else {
					break
				}
			}
			sizes[k][i] = float64(size)
		}
	}

	res := &Fig4Result{}
	var sumMaxMin, sumTopBot float64
	var nRatio int
	for k := 0; k < maxMinutes; k++ {
		s := stats.Summarize(sizes[k])
		res.Minutes = append(res.Minutes, k+1)
		res.Summaries = append(res.Summaries, s)
		if s.Min > 0 && s.Max > 0 {
			sumMaxMin += s.Max / s.Min
			if r := stats.TopBottomRatio(sizes[k], 0.1); r > 0 {
				sumTopBot += r
			}
			nRatio++
		}
	}
	if nRatio > 0 {
		res.MeanMaxMin = sumMaxMin / float64(nRatio)
		res.MeanTopBot = sumTopBot / float64(nRatio)
	}

	header(w, "Figure 4: Graph Size vs Execution Time Limit (box plot data)")
	fmt.Fprintf(w, "%-8s %10s %10s %10s %10s %10s\n", "minutes", "min", "q1", "median", "q3", "max")
	for i, s := range res.Summaries {
		fmt.Fprintf(w, "%-8d %10.0f %10.0f %10.0f %10.0f %10.0f\n",
			res.Minutes[i], s.Min, s.Q1, s.Median, s.Q3, s.Max)
	}
	fmt.Fprintf(w, "\nmean(max/min)  per threshold: %8.0fx  (paper: 15,079x)\n", res.MeanMaxMin)
	fmt.Fprintf(w, "mean(top/bottom decile):      %8.0fx  (paper: 2,857x)\n", res.MeanTopBot)
	fmt.Fprintln(w, "conclusion: no time limit yields a reliably right-sized graph")
	return res, nil
}
