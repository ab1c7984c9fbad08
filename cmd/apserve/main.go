// Command apserve is the always-on triage daemon: the deployment shape of
// the paper's system. It ingests audit event streams into a WAL-durable
// live store, runs the anomaly detectors incrementally on the live tail,
// auto-launches a backtracking investigation per alert on the analysis
// fleet, and serves the JSON/SSE triage API.
//
// Usage:
//
//	apserve -addr :8080 -store ./livedata [-tail audit.log] [-detect 2s]
//	        [-auto] [-workers 0] [-max-active 4] [-max-queued 8]
//	        [-queue 64] [-k 8] [-memo]
//	        [-retain-sessions 512] [-retain-alerts 4096]
//	        [-sample] [-metrics addr] [-pprof]
//	        [-journal out.ndjson] [-journal-level info]
//	        [-ops-rules "quota_429_rate>0.5,..."] [-watchdog 5s]
//
// Auto-launched scripts are bounded at 10 hops; a saturated tenant's 429
// carries Retry-After: 2; SIGTERM/SIGINT drains within 10 s. -memo shares
// one 64 MiB attribute-verdict cache across sessions. Status lines go to
// stderr, so stdout carries only the journal when -journal is "-".
//
// -journal enables the correlated alert-lifecycle journal: every ingest
// batch mints a correlation ID that threads through detection, the
// auto-launched run's queueing, start, first update and end, SSE delivery,
// and eviction — queryable live at GET /debug/journal?corr=... and written
// as NDJSON to the given path ("-" for stdout). It records the pipeline
// only: a run's windows, memo verdicts and pauses are its log's, at
// /api/v1/sessions/{id}/explain and /timeline. A failed journal write shows
// as journal.error on GET /ops and makes the exit status non-zero.
// -ops-rules configures the self-watchdog's SLO rules ("off" disables them);
// violations land in the journal and aptrace_ops_alerts_total. GET /readyz
// reports per-component readiness and GET /ops the operator summary (SLIs,
// watchdog, subscribers).
//
// With -sample, a synthetic enterprise workload (4 hosts, 3 days, density
// 0.5) is generated and streamed through the ingest path at startup, so the daemon is immediately
// explorable (this is what the CI smoke test drives). SIGTERM/SIGINT
// triggers the graceful drain: stop accepting sessions, stop active
// analyses (their partial graphs finalize), flush the WAL, report, exit 0.
//
// API (also mounted: /metrics, /debug/telemetry, and -pprof's /debug/pprof):
//
//	POST /api/v1/ingest                  NDJSON audit records (ETW/auditd)
//	POST /api/v1/sessions                {"tenant","script","event_id"}
//	GET  /api/v1/sessions                list sessions
//	GET  /api/v1/sessions/{id}/updates   graph deltas as SSE
//	GET  /api/v1/sessions/{id}/explain   decision records
//	GET  /api/v1/sessions/{id}/timeline  Chrome trace-event JSON
//	POST /api/v1/sessions/{id}/pause|resume|stop
//	GET  /api/v1/alerts, GET /healthz
//	GET  /debug/shards                   shard layout + scatter-gather heat
//
// /debug/shards (the same handler is mounted on the -metrics address) reports
// the live snapshot's shard layout with per-shard heat counters (queries,
// rows served, busy time) and the daemon-wide scatter-gather query profile:
// every detection scan and session query is sampled into per-kind totals,
// fan-out and skew quantiles.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aptrace"
	"aptrace/internal/memo"
	"aptrace/internal/obs"
	"aptrace/internal/serve"
	"aptrace/internal/store"
)

// drainTimeout bounds the graceful drain on SIGTERM/SIGINT.
const drainTimeout = 10 * time.Second

func main() {
	log.SetFlags(0)
	var (
		addr     = flag.String("addr", ":8080", "API listen address")
		dir      = flag.String("store", "", "live store directory (default: a temp dir)")
		tailF    = flag.String("tail", "", "follow this audit log file (ETW/auditd lines)")
		detect   = flag.Duration("detect", 2*time.Second, "detection pass interval (0 disables)")
		auto     = flag.Bool("auto", true, "auto-launch a backtracking session per alert")
		workers  = flag.Int("workers", 0, "concurrent analyses (0 = all cores)")
		maxAct   = flag.Int("max-active", 4, "per-tenant max concurrent sessions")
		maxQ     = flag.Int("max-queued", 8, "per-tenant max queued sessions")
		queue    = flag.Int("queue", 64, "global session queue capacity")
		k        = flag.Int("k", aptrace.DefaultWindows, "execution-window count")
		retainS  = flag.Int("retain-sessions", 512, "finished sessions kept queryable (-1 = unlimited)")
		retainA  = flag.Int("retain-alerts", 4096, "alerts kept in the log (-1 = unlimited)")
		sample   = flag.Bool("sample", false, "bootstrap with a generated sample workload")
		metricsA = flag.String("metrics", "", "also serve /metrics on this separate address")
		pprofF   = flag.Bool("pprof", false, "mount /debug/pprof on the API mux")
		memoOn   = flag.Bool("memo", false, "share a 64 MiB attribute-verdict memo cache (where-clause read-only, write-through and file-time walks) across sessions (reset on reseal; charged cost unchanged)")
		journalF = flag.String("journal", "", "write the alert-lifecycle journal (NDJSON) to this path (\"-\" = stdout; empty disables)")
		jLevel   = flag.String("journal-level", "info", "journal level: debug|info|warn|error")
		opsRules = flag.String("ops-rules", "", "watchdog SLO rules, e.g. \"quota_429_rate>0.5,detect_stall>30s\" (empty = defaults, \"off\" disables)")
		watchdog = flag.Duration("watchdog", 5*time.Second, "self-watchdog evaluation interval (0 disables)")
	)
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintf(out, "\nAn SSE subscriber may trail its session's newest update by %d frames (it is a\n"+
			"cursor into the session's history and costs no memory); one further behind skips\n"+
			"forward and the skipped frames count as dropped for it (GET /ops, the done frame).\n",
			serve.DefaultSubscriberBuffer)
	}
	flag.Parse()

	reg := aptrace.NewTelemetry()
	// An always-on daemon wants its own runtime vitals on every scrape.
	aptrace.RegisterRuntimeMetrics(reg)
	if *pprofF {
		reg.RegisterPprof()
	}

	var (
		journal     *obs.Journal
		journalFile *os.File
	)
	if *journalF != "" {
		level, err := obs.ParseLevel(*jLevel)
		if err != nil {
			log.Fatalf("apserve: -journal-level: %v", err)
		}
		out := io.Writer(os.Stdout)
		if *journalF != "-" {
			if journalFile, err = os.Create(*journalF); err != nil {
				log.Fatalf("apserve: -journal: %v", err)
			}
			out = journalFile
		}
		journal = obs.New(obs.Options{Level: level, Out: out, Telemetry: reg})
	}
	rules, err := obs.ParseRules(*opsRules)
	if err != nil {
		log.Fatalf("apserve: -ops-rules: %v", err)
	}
	if rules == nil {
		// "off": keep the watchdog baseline ticking with zero rules
		// (Config treats nil as "use the defaults").
		rules = []obs.Rule{}
	}

	if *dir == "" {
		tmp, err := os.MkdirTemp("", "apserve-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		*dir = tmp
	}
	live, err := store.OpenLive(*dir, nil, store.WithTelemetry(reg))
	if err != nil {
		log.Fatal(err)
	}
	defer live.Close()

	var memoBytes int64
	if *memoOn {
		memoBytes = memo.DefaultMaxBytes
	}
	srv, err := serve.New(serve.Config{
		Live:           live,
		DetectEvery:    *detect,
		AutoBacktrack:  *auto,
		Workers:        *workers,
		QueueCap:       *queue,
		Quota:          serve.Quota{MaxActive: *maxAct, MaxQueued: *maxQ},
		RetainSessions: *retainS,
		RetainAlerts:   *retainA,
		Windows:        *k,
		MemoBytes:      memoBytes,
		Telemetry:      reg,
		Journal:        journal,
		OpsRules:       rules,
		WatchdogEvery:  *watchdog,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *sample {
		ds, err := aptrace.Generate(aptrace.WorkloadConfig{
			Seed: 2, Hosts: 4, Days: 3, Density: 0.5,
		}, nil)
		if err != nil {
			log.Fatal(err)
		}
		var wire bytes.Buffer
		if _, err := aptrace.ExportAudit(ds.Store, &wire, aptrace.FormatAuditd); err != nil {
			log.Fatal(err)
		}
		stats, err := srv.IngestReader(&wire)
		if err != nil {
			log.Fatal(err)
		}
		if err := live.Checkpoint(); err != nil {
			log.Fatal(err)
		}
		log.Printf("apserve: sample workload ingested: %d records (%d rejected)",
			stats.Ingested, stats.Rejected)
	}

	httpSrv, bound, err := srv.Serve(*addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("apserve: listening on http://%s (store %s)", bound, *dir)
	if *metricsA != "" {
		// Mount the API's /debug/shards handler on the metrics mux too, so
		// operators scraping the side address read the same body.
		reg.RegisterDebug("/debug/shards", srv.ShardsHandler())
		_, maddr, err := aptrace.ServeTelemetry(*metricsA, reg)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("apserve: metrics on http://%s", maddr)
	}

	tailCtx, cancelTail := context.WithCancel(context.Background())
	tailErr := make(chan error, 1)
	if *tailF != "" {
		go func() { tailErr <- srv.Tail(tailCtx, *tailF, 0) }()
		log.Printf("apserve: tailing %s", *tailF)
	}

	srv.Start()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		log.Printf("apserve: %s: draining (budget %s)", s, drainTimeout)
	case err := <-tailErr:
		if err != nil {
			log.Printf("apserve: tail failed: %v; draining", err)
		}
	}

	cancelTail()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	rep := srv.Drain(ctx)
	httpSrv.Shutdown(ctx)
	log.Printf("apserve: drained: %d active stopped, %d queued aborted, clean=%v in %s",
		rep.Stopped, rep.Aborted, rep.Clean, rep.Took.Round(time.Millisecond))
	if err := live.Close(); err != nil {
		log.Fatal(err)
	}
	failed := !rep.Clean
	if err := journal.Err(); err != nil {
		log.Printf("apserve: journal write failed: %v", err)
		failed = true
	}
	if journalFile != nil {
		if err := journalFile.Close(); err != nil {
			log.Printf("apserve: journal close failed: %v", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
