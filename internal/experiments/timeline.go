package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"aptrace/internal/baseline"
	"aptrace/internal/core"
	"aptrace/internal/explain"
	"aptrace/internal/fleet"
	"aptrace/internal/simclock"
	"aptrace/internal/timeline"
)

// TimelineResult is the outcome of the run-profiler experiment: every
// sampled starting event is backtracked three times — plain, profiled
// (timeline lane + explain recorder), and through the King-Chen baseline
// with a profiled lane — checking that profiling has zero effect on the
// produced graph while the SLO watchdog separates the two engines exactly
// as Table II predicts: APTrace inside the target cadence, the baseline
// stalling on its monolithic queries.
type TimelineResult struct {
	Samples int
	// GraphsIdentical: for every sample, the profiled run produced exactly
	// the same edge set and modeled elapsed time as the plain run.
	GraphsIdentical bool
	GapTarget       time.Duration
	StallLimit      time.Duration
	// Per-engine aggregates over this experiment's lanes only.
	APUpdates, APQueries, APStalls    int
	BaseUpdates, BaseStalls           int
	APWorstGap, BaseWorstGap          time.Duration
	TraceEventsRecorded, TraceDropped int
	// ExampleStall is one concrete watchdog hit (first baseline lane with
	// one), with explain correlation when an APTrace stall exists instead.
	ExampleStall string
	// TraceValid: the exported Chrome trace-event JSON passed schema
	// validation (required keys, per-lane ts monotonicity).
	TraceValid bool
}

// RunTimeline profiles every sampled analysis into timeline lanes and
// exercises the SLO watchdog. It uses cfg.Timeline when set (so apbench
// -timeline exports these lanes too) and a private profiler otherwise;
// everything printed is computed from the lanes this experiment allocated,
// so stdout is byte-identical serial vs parallel and with or without a
// shared profiler.
func RunTimeline(env *Env, cfg Config, w io.Writer) (*TimelineResult, error) {
	events := env.sampleEvents(cfg.Samples, cfg.Seed)
	n := len(events)

	tl := cfg.Timeline
	if tl == nil {
		tl = timeline.New(timeline.Options{Telemetry: cfg.Telemetry})
	}
	// Both lane blocks are allocated before any job runs: lane IDs are
	// functions of the sample index, never of scheduling.
	apLanes := tl.Lanes("timeline/aptrace", n)
	baseLanes := tl.Lanes("timeline/baseline", n)

	type trun struct {
		identical bool
		ap, base  explain.Progress
		apStall   string // formatted + explain-correlated, "" when none
	}
	workers := cfg.Parallel
	if workers < 1 {
		workers = 1
	}
	pool := fleet.New(workers, cfg.Telemetry)
	runs, err := fleet.Map(pool, n, func(i int) (trun, error) {
		ev := events[i]

		// 1. Plain APTrace run: the zero-effect reference.
		clk1 := simclock.NewSimulated(time.Time{})
		v1, err := env.Dataset.Store.View(clk1)
		if err != nil {
			return trun{}, err
		}
		x1, err := core.New(v1, wildcardPlan(cfg.Cap), cfg.execOptions())
		if err != nil {
			return trun{}, err
		}
		res1, err := x1.RunUnchecked(ev)
		if err != nil {
			return trun{}, err
		}

		// 2. Profiled APTrace run, into its lane's log, on a second private
		// view and clock.
		clk2 := simclock.NewSimulated(time.Time{})
		v2, err := env.Dataset.Store.View(clk2)
		if err != nil {
			return trun{}, err
		}
		x2, err := core.New(v2, wildcardPlan(cfg.Cap), cfg.laneOptions(apLanes[i]))
		if err != nil {
			return trun{}, err
		}
		res2, err := x2.RunUnchecked(ev)
		if err != nil {
			return trun{}, err
		}

		// 3. Baseline run with its own lane: the harness brackets the run
		// (the baseline has no executor emission points), and its
		// monolithic retrievals are what the watchdog exists to catch.
		clk3 := simclock.NewSimulated(time.Time{})
		v3, err := env.Dataset.Store.View(clk3)
		if err != nil {
			return trun{}, err
		}
		if _, err := runBaseline(v3, ev, baseline.Options{TimeBudget: cfg.Cap}, baseLanes[i]); err != nil {
			return trun{}, err
		}

		r := trun{
			identical: sameEdges(res1.Graph.Edges(), res2.Graph.Edges()) &&
				res1.Elapsed == res2.Elapsed,
			ap:   apLanes[i].Progress(),
			base: baseLanes[i].Progress(),
		}
		// Name the decision behind the first APTrace stall, if any, from the
		// records of the same log.
		if len(r.ap.Stalls) > 0 {
			s := r.ap.Stalls[0]
			r.apStall = fmt.Sprintf("[%s] gap %s after t=%s",
				s.LaneName, fmtDur(s.Gap), s.At.Format("15:04:05"))
			if s.HasWindow {
				r.apStall += fmt.Sprintf("; offending query obj=%d [%d,%d) rows=%d",
					s.Obj, s.Begin, s.Finish, s.Rows)
			}
			if er, ok := timeline.CorrelateStall(s, apLanes[i]); ok {
				r.apStall += fmt.Sprintf("; explain seq=%d %s obj=%d card=%d",
					er.Seq, er.Kind, er.Node, er.Card)
			}
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	res := &TimelineResult{
		Samples:         n,
		GraphsIdentical: true,
		GapTarget:       tl.GapTarget(),
		StallLimit:      tl.StallLimit(),
	}
	exampleCorrelated := false
	for _, r := range runs {
		res.GraphsIdentical = res.GraphsIdentical && r.identical
		res.APUpdates += r.ap.Updates
		res.APQueries += r.ap.Queries
		res.APStalls += len(r.ap.Stalls)
		res.BaseUpdates += r.base.Updates
		res.BaseStalls += len(r.base.Stalls)
		res.TraceEventsRecorded += r.ap.Events + r.base.Events
		res.TraceDropped += r.ap.Dropped + r.base.Dropped
		if r.ap.WorstGap > res.APWorstGap {
			res.APWorstGap = r.ap.WorstGap
		}
		if r.base.WorstGap > res.BaseWorstGap {
			res.BaseWorstGap = r.base.WorstGap
		}
		// Prefer an APTrace stall as the example (it carries offender +
		// explain correlation); fall back to a baseline stall.
		if r.apStall != "" && (res.ExampleStall == "" || !exampleCorrelated) {
			res.ExampleStall = r.apStall
			exampleCorrelated = true
		}
		if res.ExampleStall == "" && len(r.base.Stalls) > 0 {
			s := r.base.Stalls[0]
			res.ExampleStall = fmt.Sprintf("[%s] no update for %s (limit %s) after t=%s",
				s.LaneName, fmtDur(s.Gap), fmtDur(res.StallLimit), s.At.Format("15:04:05"))
		}
	}

	// The exported trace must hold the format contract at all times.
	var buf bytes.Buffer
	if err := tl.WriteTrace(&buf); err != nil {
		return nil, err
	}
	res.TraceValid = timeline.Validate(buf.Bytes()) == nil

	header(w, "Timeline: Run Profiler + SLO Watchdog")
	fmt.Fprintf(w, "sampled starting events:      %d (each: plain, profiled, baseline-profiled)\n", res.Samples)
	fmt.Fprintf(w, "profiling effect on graphs:   %s\n", zeroEffect(res.GraphsIdentical))
	fmt.Fprintf(w, "SLO: inter-update gap target  %s (stall when a gap exceeds %s)\n",
		fmtDur(res.GapTarget), fmtDur(res.StallLimit))
	fmt.Fprintf(w, "%-10s %9s %9s %8s %10s\n", "", "updates", "queries", "stalls", "worst gap")
	fmt.Fprintf(w, "%-10s %9d %9d %8d %10s\n", "APTrace",
		res.APUpdates, res.APQueries, res.APStalls, fmtDur(res.APWorstGap))
	fmt.Fprintf(w, "%-10s %9d %9s %8d %10s\n", "baseline",
		res.BaseUpdates, "-", res.BaseStalls, fmtDur(res.BaseWorstGap))
	if res.ExampleStall != "" {
		fmt.Fprintf(w, "example stall:                %s\n", res.ExampleStall)
	}
	lost := "0 dropped by lane caps" // what a run that drops nothing has always printed
	if res.TraceDropped > 0 {
		lost = fmt.Sprintf("%d log records dropped by ring overflow", res.TraceDropped)
	}
	fmt.Fprintf(w, "trace events recorded:        %d (%s)\n", res.TraceEventsRecorded, lost)
	fmt.Fprintf(w, "trace-event JSON schema:      %s\n", validWord(res.TraceValid))
	// Trace size in bytes depends on every lane the (possibly shared)
	// profiler holds, so it goes to stderr like the other wall facts.
	fmt.Fprintf(os.Stderr, "timeline: trace is %d bytes over %d lanes\n", buf.Len(), len(tl.Report().Lanes))
	return res, nil
}

func validWord(ok bool) string {
	if ok {
		return "valid (required keys present, ts monotonic per lane)"
	}
	return "INVALID"
}
