// Command aptrace runs responsive backtracking analysis over a persisted
// store, driven by a BDL script.
//
// Usage:
//
//	aptrace -store ./data -script investigate.bdl [-simulate] [-k 8]
//	aptrace -store ./data -script investigate.bdl -batch [-parallel 4]
//	aptrace -store ./data -alerts
//
// With -alerts, the built-in anomaly detector scans the store and lists the
// events that would start an investigation. With -script, the script's
// starting point locates the alert, exploration streams progress to stderr,
// and the final dependency graph goes to the script's "output" path (or
// stdout as DOT if the script has none).
//
// With -batch, the script runs from EVERY event matching its starting point
// — the enterprise triage posture, where one detector rule fires many alerts
// a day. The analyses fan out across -parallel workers (0 = all cores), each
// over its own read view of the shared store, and a per-alert summary table
// goes to stdout in event order. If the script names an output path, each
// alert's graph is written as DOT to <output>.<event-id>.
//
// -metrics serves /metrics (Prometheus), /debug/telemetry (JSON) and
// net/http/pprof's /debug/pprof on one address for the process lifetime.
// -memo shares one 64 MiB attribute-verdict cache across -batch analyses.
//
// -simulate attaches the query cost model to a virtual clock, reporting
// analysis time in modeled database-latency terms; without it, timings are
// wall clock (the store is in memory, so they are near zero).
//
// With -timeline, the run's log (or every batch alert's, one lane each) is
// read back as its timeline: window lifecycle, query costs, graph updates,
// and session pauses, exported as Chrome trace-event JSON (load the file in
// ui.perfetto.dev) and served live at /debug/timeline when -metrics is on.
// The SLO watchdog flags any inter-update gap beyond 3x the 9 s target (the
// paper's p95 inter-update wait) and the end-of-run report (stderr) names the
// offending query, correlated with -explain decision records when both are
// enabled.
// -explain and -timeline read the same run log: either flag attaches it,
// each selects its own output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"aptrace"
	"aptrace/internal/explain"
	"aptrace/internal/repl"
	"aptrace/internal/stats"
)

func main() {
	var (
		storeDir  = flag.String("store", "", "store directory (required)")
		script    = flag.String("script", "", "BDL script file")
		alerts    = flag.Bool("alerts", false, "scan the store with the anomaly detector and list alerts")
		simulate  = flag.Bool("simulate", false, "charge the query cost model to a virtual clock")
		k         = flag.Int("k", aptrace.DefaultWindows, "execution-window count")
		quiet     = flag.Bool("quiet", false, "suppress the per-update progress stream")
		doSug     = flag.Bool("suggest", false, "after the run, propose exclusion heuristics for the next script version")
		inter     = flag.Bool("interactive", false, "start the interactive analyst console")
		metrics   = flag.String("metrics", "", "serve /metrics (Prometheus), /debug/telemetry (JSON) and /debug/pprof on this address, e.g. :9090")
		batch     = flag.Bool("batch", false, "run the script from every matching starting event (see -parallel)")
		parallel  = flag.Int("parallel", 1, "concurrent analyses in -batch mode (0 = all cores)")
		memoOn    = flag.Bool("memo", false, "share a 64 MiB cross-alert attribute-verdict cache (where-clause read-only, write-through and file-time walks) across -batch analyses (identical output, less real CPU)")
		explArg   = flag.String("explain", "", "attach the run log and explain the result from it: an object ID, \"all\" (every graph node), \"frontier\" (pruned candidates), or \"on\" (record only, for -interactive); explanations go to stderr")
		timelineF = flag.String("timeline", "", "attach the run log and profile the run(s) from it into a timeline; write the Chrome trace-event JSON to this path")
	)
	flag.Parse()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "aptrace: -store is required")
		flag.Usage()
		os.Exit(2)
	}

	var clk aptrace.Clock
	if *simulate {
		clk = aptrace.NewSimulatedClock()
	}
	var reg *aptrace.Telemetry
	var storeOpts []aptrace.StoreOption
	if *metrics != "" {
		reg = aptrace.NewTelemetry()
		aptrace.RegisterRuntimeMetrics(reg)
		reg.RegisterPprof()
	}
	// -explain and -timeline select outputs of a run, not recorders: either
	// attaches the one run log, and each reads its own view of it back.
	var rec *aptrace.ExplainRecorder
	if *explArg != "" || *timelineF != "" {
		rec = aptrace.NewExplainRecorder(0, reg)
	}
	if *explArg != "" {
		// Mount the decision dump next to the telemetry endpoints; must
		// happen before ServeTelemetry builds the mux.
		reg.RegisterDebug("/debug/explain", rec.Handler())
	}
	var tl *timeline
	if *timelineF != "" {
		tl = &timeline{}
		// The run's log is the one lane; a batch binds one per alert once it
		// has found them (runBatch).
		if *inter || !*batch {
			lane := "run"
			if *inter {
				lane = "console"
			}
			tl.publish([]*explain.Recorder{rec}, func(int) string { return lane })
		}
		// Live view of the trace, same mux rule as /debug/explain.
		reg.RegisterDebug("/debug/timeline", explain.TraceHandler(tl.logs))
	}
	// writeTimeline exports the lanes' trace and prints the SLO report to
	// stderr, naming the decision behind each stall when -explain is on.
	writeTimeline := func() {
		if tl == nil {
			return
		}
		f, err := os.Create(*timelineF)
		if err != nil {
			fatal(err)
		}
		if err := explain.WriteTrace(f, tl.logs()); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "\ntimeline: trace written to %s (load in ui.perfetto.dev)\n", *timelineF)
		var explained *aptrace.ExplainRecorder
		if *explArg != "" && !*batch {
			explained = rec
		}
		explain.NewReport(explain.DefaultGapTarget, tl.logs()).Print(os.Stderr, explained)
	}
	if reg != nil {
		_, addr, err := aptrace.ServeTelemetry(*metrics, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics and /debug/telemetry on %s\n", addr)
		storeOpts = append(storeOpts, aptrace.WithTelemetry(reg))
	}
	st, err := aptrace.OpenStore(*storeDir, clk, storeOpts...)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "opened store: %d events, %d objects\n", st.NumEvents(), st.NumObjects())

	if *alerts {
		listAlerts(st)
		return
	}
	if *inter {
		console := repl.New(st, aptrace.ExecOptions{Windows: *k, Telemetry: reg, Explain: rec}, os.Stdout)
		if _, err := console.Run(os.Stdin); err != nil {
			fatal(err)
		}
		writeTimeline()
		return
	}
	if *script == "" {
		fmt.Fprintln(os.Stderr, "aptrace: one of -script, -alerts, or -interactive is required")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*script)
	if err != nil {
		fatal(err)
	}
	if *batch {
		if *parallel <= 0 {
			*parallel = runtime.GOMAXPROCS(0)
		}
		var cache *aptrace.MemoCache
		if *memoOn {
			cache = aptrace.NewMemoCache(0, reg)
		}
		if err := runBatch(os.Stdout, st, string(raw), *k, *parallel, *simulate, reg, *explArg, tl, cache); err != nil {
			fatal(err)
		}
	} else {
		runScript(st, string(raw), *k, *quiet, *doSug, reg, rec, *explArg)
	}
	writeTimeline()
	dumpTelemetry(reg)
}

// timeline is what -timeline reads: the logs bound as its lanes — the run's,
// or a batch's one per alert. The lanes are published atomically, so the
// live /debug/timeline handler, mounted before a batch has found its alerts,
// serves every lane once bound.
type timeline struct {
	lanes atomic.Pointer[[]*explain.Recorder]
}

// publish binds logs as the timeline's lanes — lane i+1 named name(i), with
// the stall limit of the default gap target — and makes them the ones it
// reads.
func (tl *timeline) publish(logs []*explain.Recorder, name func(i int) string) {
	for i, log := range logs {
		log.Bind(int64(i+1), name(i), explain.DefaultStallFactor*explain.DefaultGapTarget)
	}
	tl.lanes.Store(&logs)
}

// logs returns the published lanes (none before a batch binds its own).
func (tl *timeline) logs() []*explain.Recorder {
	if p := tl.lanes.Load(); p != nil {
		return *p
	}
	return nil
}

// runBatch runs the script from every event matching its starting point,
// fanning the analyses over a bounded pool. Each run gets a private read
// view of the store (own clock and counters, shared event log), so the runs
// neither contend nor interfere; the summary table is printed in event
// order, independent of scheduling. A non-nil cache is shared by every run
// of the batch: closures one alert's backtrack computes are reused by the
// next, with identical charged cost either way.
func runBatch(stdout io.Writer, st *aptrace.Store, src string, k, workers int, simulate bool, reg *aptrace.Telemetry, explArg string, tl *timeline, cache *aptrace.MemoCache) error {
	plan, err := aptrace.CompileScript(src)
	if err != nil {
		return err
	}
	min, max, ok := st.TimeRange()
	if !ok {
		return fmt.Errorf("store is empty")
	}
	from, to := plan.Range(min, max)
	// CollectMatches scatters the starting-point scan across the store's
	// shards (each scan task gets its own compiled plan, since plan state is
	// per scan) and merges the hits back into global event order — on a flat
	// store it degenerates to the plain serial scan. Charged cost and match
	// list are byte-identical either way.
	starts, err := st.CollectMatches(from, to, func() func(aptrace.Event) (bool, error) {
		p, perr := aptrace.CompileScript(src)
		return func(e aptrace.Event) (bool, error) {
			if perr != nil {
				return false, perr
			}
			return p.MatchStart(e, st)
		}
	})
	if err != nil {
		return err
	}
	if len(starts) == 0 {
		// An empty triage batch is a normal outcome (the detector rule
		// simply has no hits today), not an error: say so, write nothing,
		// exit clean.
		fmt.Fprintln(stdout, "batch: 0 starting events match the script's starting point; nothing to do")
		return nil
	}
	// The per-alert DOT naming scheme is <output>.<event-id>; event IDs are
	// unique within one store, but fail loudly before running anything —
	// rather than silently overwriting a graph — if that assumption is
	// ever violated.
	var paths []string
	if plan.Output != "" {
		if paths, err = dotPaths(plan.Output, starts); err != nil {
			return err
		}
	}

	pool := aptrace.NewFleet(workers, reg)
	fmt.Fprintf(os.Stderr, "batch: %d starting events across %d workers\n", len(starts), pool.Workers())

	type outcome struct {
		reason  string
		edges   int
		nodes   int
		windows int
		elapsed time.Duration
		graph   *aptrace.Graph
		rec     *aptrace.ExplainRecorder // per-run log (nil unless -explain or -timeline)
	}
	wall := time.Now()
	// Lanes are bound by alert index before any run starts — the trace
	// cannot depend on which worker ran which alert.
	var lanes []*explain.Recorder
	if tl != nil {
		lanes = make([]*explain.Recorder, len(starts))
		for i := range lanes {
			lanes[i] = explain.New(0, reg)
		}
		tl.publish(lanes, func(i int) string { return fmt.Sprintf("alert %d", i) })
	}
	runs, err := aptrace.FleetMap(pool, len(starts), func(i int) (outcome, error) {
		var clk aptrace.Clock
		if simulate {
			clk = aptrace.NewSimulatedClock()
		}
		view, err := st.View(clk)
		if err != nil {
			return outcome{}, err
		}
		// Compile privately: plan state (quantity-rule maintainers) is
		// per analysis, not shared across the fleet.
		p, err := aptrace.CompileScript(src)
		if err != nil {
			return outcome{}, err
		}
		// One log per analysis (the counters are shared), the alert's lane
		// when -timeline is on: decision traces stay per-run, so fleet
		// scheduling cannot interleave them.
		var rec *explain.Recorder
		if lanes != nil {
			rec = lanes[i]
		} else if explArg != "" {
			rec = explain.New(0, reg)
		}
		x, err := aptrace.NewExecutor(view, p, aptrace.ExecOptions{Windows: k, Telemetry: reg, Explain: rec, Memo: cache})
		if err != nil {
			return outcome{}, err
		}
		res, err := x.Run(starts[i])
		if err != nil {
			return outcome{}, err
		}
		return outcome{
			reason:  fmt.Sprint(res.Reason),
			edges:   res.Graph.NumEdges(),
			nodes:   res.Graph.NumNodes(),
			windows: res.Windows,
			elapsed: res.Elapsed,
			graph:   res.Graph,
			rec:     rec,
		}, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%-22s %-9s %-22s %8s %8s %8s %10s\n",
		"time (UTC)", "event id", "reason", "events", "nodes", "windows", "elapsed")
	for i, r := range runs {
		fmt.Fprintf(stdout, "%-22s %-9d %-22s %8d %8d %8d %10s\n",
			starts[i].When().Format("2006-01-02 15:04:05"), starts[i].ID,
			r.reason, r.edges, r.nodes, r.windows, r.elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "%d analyses in %.1fs wall\n", len(runs), time.Since(wall).Seconds())
	if cache != nil {
		// Cache effectiveness goes to stderr: stdout must stay
		// byte-identical with the memo on or off.
		cs := cache.Stats()
		fmt.Fprintf(os.Stderr, "memo: %d hits, %d misses (%.1f%% hit rate), %d bytes held, %d evictions\n",
			cs.Hits, cs.Misses, 100*cs.HitRate(), cs.Bytes, cs.Evictions)
	}

	if explArg != "" {
		for i, r := range runs {
			fmt.Fprintf(os.Stderr, "\n--- event %d ---\n", starts[i].ID)
			explainReport(os.Stderr, st, r.rec, r.graph, explArg)
		}
	}

	if plan.Output != "" {
		for i, r := range runs {
			f, err := os.Create(paths[i])
			if err != nil {
				return err
			}
			// With -explain the DOT carries the prune frontier: dashed gray
			// nodes for the candidates the analysis decided against.
			var werr error
			if explArg != "" {
				werr = aptrace.WriteDOTAnnotated(f, r.graph, st.Object, aptrace.PruneFrontierAnnotations(r.rec))
			} else {
				werr = aptrace.WriteDOT(f, r.graph, st.Object)
			}
			if werr != nil {
				f.Close()
				return werr
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "%d graphs written to %s.<event-id>\n", len(runs), plan.Output)
	}
	return nil
}

// dotPaths derives the per-alert DOT output path for every starting event
// and errors if any two collide (duplicate event IDs would silently
// overwrite one another's graphs otherwise).
func dotPaths(output string, starts []aptrace.Event) ([]string, error) {
	paths := make([]string, len(starts))
	seen := make(map[string]aptrace.EventID, len(starts))
	for i, ev := range starts {
		p := fmt.Sprintf("%s.%d", output, ev.ID)
		if prev, dup := seen[p]; dup {
			return nil, fmt.Errorf("DOT output path %s collides: starting events %d and %d map to the same file", p, prev, ev.ID)
		}
		seen[p] = ev.ID
		paths[i] = p
	}
	return paths, nil
}

// dumpTelemetry writes the end-of-run metrics snapshot to stderr as JSON so
// a scripted run leaves a machine-readable record even when nothing
// scraped the HTTP endpoint.
func dumpTelemetry(reg *aptrace.Telemetry) {
	if reg == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "\ntelemetry snapshot:")
	enc := json.NewEncoder(os.Stderr)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reg.Snapshot()); err != nil {
		fmt.Fprintln(os.Stderr, "aptrace: telemetry snapshot:", err)
	}
}

func listAlerts(st *aptrace.Store) {
	det := aptrace.NewDetector()
	found, err := det.Scan(st, 0, 1<<62)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-22s %-16s %-9s %s\n", "time (UTC)", "rule", "event id", "detail")
	for _, a := range found {
		fmt.Printf("%-22s %-16s %-9d %s\n",
			a.Event.When().Format("2006-01-02 15:04:05"), a.Rule, a.Event.ID, a.Message)
	}
	fmt.Fprintf(os.Stderr, "%d alerts\n", len(found))
}

func runScript(st *aptrace.Store, src string, k int, quiet, doSuggest bool, reg *aptrace.Telemetry, rec *aptrace.ExplainRecorder, explArg string) {
	sess := aptrace.NewSession(st, aptrace.ExecOptions{
		Windows:   k,
		Telemetry: reg,
		Explain:   rec,
		OnUpdate: func(u aptrace.Update) {
			if quiet {
				return
			}
			o := st.Object(u.Event.Src())
			fmt.Fprintf(os.Stderr, "[%s] + %s --%s--> graph now %d events\n",
				u.At.Format("15:04:05"), o.Label(), u.Event.Action, u.Edges)
		},
	})
	if err := sess.Start(src, nil); err != nil {
		fatal(err)
	}
	res, err := sess.Wait()
	if err != nil {
		fatal(err)
	}
	pruned, err := sess.Finalize()
	if err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "\nanalysis %s: %d events, %d nodes (pruned %d), %d windows, elapsed %s\n",
		res.Reason, res.Graph.NumEdges(), res.Graph.NumNodes(), pruned, res.Windows, res.Elapsed.Round(time.Millisecond))
	if explArg != "" {
		explainReport(os.Stderr, st, rec, res.Graph, explArg)
	}
	if ds := stats.Deltas(stats.DistinctTimes(sess.UpdateTimes())); len(ds) > 0 {
		xs := stats.Durations(ds)
		ps := stats.Percentiles(xs, 0.5, 0.9, 0.99)
		fmt.Fprintf(os.Stderr, "update gaps: median %.2fs, p90 %.2fs, p99 %.2fs\n", ps[0], ps[1], ps[2])
	}

	if doSuggest {
		sugs := aptrace.SuggestHeuristics(res.Graph, st, 6)
		if len(sugs) > 0 {
			fmt.Fprintln(os.Stderr, "\nsuggested heuristics for the next version (verify before applying):")
			for _, s := range sugs {
				fmt.Fprintf(os.Stderr, "  %-40s -- %s\n", s.Clause, s.Reason)
			}
		}
	}

	// The script's output clause was honored by Finalize; if there was
	// none, emit DOT on stdout so the tool is still composable.
	plan, err := aptrace.CompileScript(src)
	if err == nil && plan.Output == "" {
		if err := aptrace.WriteDOT(os.Stdout, res.Graph, st.Object); err != nil {
			fatal(err)
		}
	} else if plan != nil {
		fmt.Fprintf(os.Stderr, "graph written to %s\n", plan.Output)
	}
}

// explainReport prints decision-trace justifications to w. arg selects the
// scope: "all" explains every graph node and appends the prune frontier,
// "frontier" prints only the pruned candidates, a numeric object ID explains
// that one object, and anything else (e.g. "on") prints just the recorder
// stats line.
func explainReport(w io.Writer, st *aptrace.Store, rec *aptrace.ExplainRecorder, g *aptrace.Graph, arg string) {
	if rec == nil {
		return
	}
	label := func(id aptrace.ObjID) string { return st.Object(id).Label() }
	emitted, dropped := rec.Stats()
	fmt.Fprintf(w, "\ndecision trace: %d records (%d overwritten by ring overflow)\n", emitted, dropped)
	printFrontier := func() {
		frontier := rec.PruneFrontier()
		if len(frontier) == 0 {
			return
		}
		fmt.Fprintf(w, "prune frontier (%d candidates excluded):\n", len(frontier))
		for _, p := range frontier {
			fmt.Fprintf(w, "  %-40s %s\n", label(p.Node), p.Reason)
		}
	}
	switch arg {
	case "all":
		if g != nil {
			for _, n := range g.Nodes() {
				fmt.Fprintf(w, "%s (object %d):\n", label(n.ID), n.ID)
				for _, line := range strings.Split(strings.TrimRight(rec.Explain(n.ID).Justification(label), "\n"), "\n") {
					fmt.Fprintf(w, "  %s\n", line)
				}
			}
		}
		printFrontier()
	case "frontier":
		printFrontier()
	default:
		if id, err := strconv.ParseUint(arg, 10, 32); err == nil {
			fmt.Fprint(w, rec.Explain(aptrace.ObjID(id)).Justification(label))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aptrace:", err)
	os.Exit(1)
}
