// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV) over the synthetic enterprise dataset:
//
//	Severity  – Section IV-B1: how common dependency explosion is.
//	Fig4      – Figure 4: graph size vs execution time limit (box plots).
//	Table1    – Table I: the five attack cases with and without heuristics.
//	Table2    – Table II: inter-update waiting time, baseline vs APTrace.
//	Fig6      – Figure 6: CPU and memory usage over a long analysis.
//	Refiner   – Section III-B3: re-propagation over the cached graph vs a re-run.
//	AblationK / AblationPolicy – design-choice ablations from DESIGN.md.
//
// Each runner prints the same rows/series the paper reports and returns a
// structured result for programmatic inspection. Absolute numbers depend on
// the synthetic dataset and the query cost model; the quantities that must
// reproduce are the relationships: who wins, by how much, and where the
// pathologies appear.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"aptrace/internal/core"
	"aptrace/internal/event"
	"aptrace/internal/fleet"
	"aptrace/internal/refiner"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
	"aptrace/internal/workload"
)

// Config parameterizes an experiment run.
type Config struct {
	// Samples is the number of random starting events (the paper uses 200).
	Samples int
	// Cap bounds each unoptimized backtracking execution (the paper caps
	// at two hours).
	Cap time.Duration
	// Windows is the execution-window count k (the paper's teams used 8).
	Windows int
	// Seed drives event sampling.
	Seed int64
	// Parallel is the number of analyses run concurrently by the sampling
	// experiments (severity, fig4, table2, ablations): each starting event
	// runs over its own store.View charging a private simulated clock, and
	// results aggregate in sample order, so any value produces tables
	// byte-identical to a serial run. 0 or 1 runs serially; values above 1
	// cut wall-clock time on multi-core machines.
	Parallel int
}

// execOptions returns the baseline core options for this config.
func (c Config) execOptions() core.Options {
	return core.Options{Windows: c.Windows}
}

// DefaultConfig mirrors the paper's experiment parameters.
func DefaultConfig() Config {
	return Config{Samples: 200, Cap: 2 * time.Hour, Windows: 8, Seed: 42}
}

// Env bundles the dataset and its simulated clock. All experiment runners
// require the dataset's store to charge a *simclock.Simulated so that
// execution time is measured in modeled database-latency terms.
type Env struct {
	Dataset *workload.Dataset
	Clock   *simclock.Simulated
}

// NewEnv generates a dataset bound to a fresh simulated clock.
func NewEnv(cfg workload.Config) (*Env, error) {
	clk := simclock.NewSimulated(time.Time{})
	ds, err := workload.Generate(cfg, clk)
	if err != nil {
		return nil, err
	}
	return &Env{Dataset: ds, Clock: clk}, nil
}

// sampleEvents draws n random starting events, deterministically under seed.
func (e *Env) sampleEvents(n int, seed int64) []event.Event {
	rng := rand.New(rand.NewSource(seed))
	return e.Dataset.Store.RandomEvents(n, rng)
}

// fanOut backtracks every sampled starting event on a fleet pool: one job
// per event, each over its own read view of the dataset's store charging a
// private simulated clock. Every per-run measurement is a difference of
// readings on that private clock, so a run's numbers do not depend on which
// worker executed it or when; collecting results in sample order then makes
// the aggregates — and every printed table — bit-for-bit identical to the
// serial loop, while real wall-clock work spreads across cfg.Parallel
// goroutines.
func fanOut[T any](env *Env, cfg Config, events []event.Event,
	job func(st *store.Store, clk *simclock.Simulated, ev event.Event) (T, error)) ([]T, error) {
	workers := cfg.Parallel
	if workers < 1 {
		workers = 1
	}
	return fleet.Map(fleet.New(workers, nil), len(events), func(i int) (T, error) {
		clk := simclock.NewSimulated(time.Time{})
		v, err := env.Dataset.Store.View(clk)
		if err != nil {
			var zero T
			return zero, err
		}
		return job(v, clk, events[i])
	})
}

// wildcardPlan compiles an unconstrained plan (no heuristics) with the given
// analysis time budget; the start matcher is never consulted because the
// harness passes alert events directly.
func wildcardPlan(budget time.Duration) *refiner.Plan {
	p, err := refiner.ParseAndCompile(`backward proc p[exename = "*"] -> *`)
	if err != nil {
		panic("experiments: wildcard plan must compile: " + err.Error())
	}
	p.TimeBudget = budget
	return p
}

// header prints an underlined section title.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n", title)
	for range title {
		fmt.Fprint(w, "=")
	}
	fmt.Fprintln(w)
}

// fmtDur renders a duration compactly in the unit the paper uses (seconds,
// or minutes above 120 s).
func fmtDur(d time.Duration) string {
	s := d.Seconds()
	switch {
	case s >= 120:
		return fmt.Sprintf("%.1fm", s/60)
	case s >= 10:
		return fmt.Sprintf("%.0fs", s)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

// pct renders a fraction as a percentage.
func pct(num, den int) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(num)/float64(den))
}
