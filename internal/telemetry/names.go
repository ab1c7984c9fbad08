package telemetry

// Canonical metric names. Everything APTrace exports lives under the
// aptrace_ prefix, grouped by layer: store (query engine + live WAL),
// executor (window scheduling), session (analyst-visible activity).
// Counters end in _total; histograms carry their unit as a suffix.
const (
	// Store query engine.
	MetricStoreQueries       = "aptrace_store_queries_total"
	MetricStoreRowsExamined  = "aptrace_store_rows_examined_total"
	MetricStoreBucketsPruned = "aptrace_store_buckets_pruned_total"
	MetricStorePostingHits   = "aptrace_store_posting_hits_total"
	MetricStorePostingMisses = "aptrace_store_posting_misses_total"
	MetricStoreQueryRows     = "aptrace_store_query_rows"
	MetricStoreQueryLatency  = "aptrace_store_query_latency_seconds"
	// The seal's wall nanos (real CPU, never charged cost).
	MetricStoreSealWallNs = "aptrace_store_seal_wall_ns"

	// Live store WAL.
	MetricWALAppends = "aptrace_store_wal_appends_total"
	MetricWALFsyncs  = "aptrace_store_wal_fsyncs_total"

	// Executor (window scheduling).
	MetricExecQueueDepth = "aptrace_executor_queue_depth"
	MetricExecWindows    = "aptrace_executor_windows_total"
	MetricExecResplits   = "aptrace_executor_resplits_total"
	MetricExecUpdateGap  = "aptrace_executor_update_gap_seconds"

	// Session (analyst loop).
	MetricSessionUpdates = "aptrace_session_updates_total"
	MetricSessionPauses  = "aptrace_session_pauses_total"
	MetricSessionResumes = "aptrace_session_resumes_total"

	// Fleet (parallel analysis pool).
	MetricFleetActive   = "aptrace_fleet_active_runs"
	MetricFleetQueued   = "aptrace_fleet_queued_runs"
	MetricFleetRuns     = "aptrace_fleet_runs_total"
	MetricFleetFailures = "aptrace_fleet_failures_total"

	// Audit ingest (collection side). decode errors count lines the wire
	// parsers rejected (typed DecodeError), invalid records count lines
	// that parsed but failed structural validation.
	MetricIngestRecords      = "aptrace_ingest_records_total"
	MetricIngestDecodeErrors = "aptrace_ingest_decode_errors_total"
	MetricIngestInvalid      = "aptrace_ingest_invalid_records_total"

	// Triage service (internal/serve): session admission and streaming.
	// rejected counts submissions turned away by admission control (429);
	// updates_dropped counts graph updates discarded because an SSE
	// subscriber's bounded buffer was full (slow-consumer accounting).
	MetricServeSessionsActive   = "aptrace_serve_sessions_active"
	MetricServeSessionsQueued   = "aptrace_serve_sessions_queued"
	MetricServeSessions         = "aptrace_serve_sessions_total"
	MetricServeSessionsRejected = "aptrace_serve_sessions_rejected_total"
	MetricServeUpdatesDropped   = "aptrace_serve_updates_dropped_total"
	MetricServeAlerts           = "aptrace_serve_alerts_total"
	MetricServeAutoRuns         = "aptrace_serve_autoruns_total"

	// Explain (decision flight recorder). records counts every decision
	// emitted; dropped counts records overwritten by ring overflow, so a
	// truncated flight recording is visible instead of silent.
	MetricExplainRecords = "aptrace_explain_records_total"
	MetricExplainDropped = "aptrace_explain_dropped_total"

	// Timeline SLO watchdog: fired once per detected stall (no graph
	// update within a lane's stall limit; see explain.Recorder.Bind).
	MetricSLOStalls = "aptrace_slo_stall_total"

	// Cross-alert memo cache (internal/memo). hits/misses count cache
	// verdicts, evictions counts entries displaced by the byte budget, and
	// bytes is the resident size of all cached attribute verdicts. A hit
	// saves only real CPU: charged cost is replayed identically, so these
	// counters are the ONLY place cache effectiveness is visible.
	MetricMemoHits      = "aptrace_memo_hits_total"
	MetricMemoMisses    = "aptrace_memo_misses_total"
	MetricMemoEvictions = "aptrace_memo_evictions_total"
	MetricMemoBytes     = "aptrace_memo_bytes"

	// Alert-lifecycle observability (internal/obs): journal accounting,
	// the five pipeline-latency SLIs (wall-clock, never the analysis
	// clock), and the self-watchdog's fired-alert counter.
	MetricObsJournalEntries      = "aptrace_obs_journal_entries_total"
	MetricOpsAlerts              = "aptrace_ops_alerts_total"
	MetricSLIIngestToDetect      = "aptrace_sli_ingest_to_detect_seconds"
	MetricSLIDetectToLaunch      = "aptrace_sli_detect_to_launch_seconds"
	MetricSLILaunchToFirstUpdate = "aptrace_sli_launch_to_first_update_seconds"
	MetricSLISubmitToTerminal    = "aptrace_sli_submit_to_terminal_seconds"
	MetricSLIUpdateToSSEFlush    = "aptrace_sli_update_to_sse_flush_seconds"

	// Go runtime process health (RegisterRuntime), refreshed at scrape
	// time so dashboards see goroutine/heap/GC state next to app counters.
	MetricRuntimeGoroutines = "aptrace_runtime_goroutines"
	MetricRuntimeHeapInuse  = "aptrace_runtime_heap_inuse_bytes"
	MetricRuntimeGCCount    = "aptrace_runtime_gc_total"
	MetricRuntimeGCPause    = "aptrace_runtime_gc_pause_seconds"
)

// Default bucket boundaries. LatencyBuckets cover the simulated query-cost
// regime (50 ms seek + 400 ms/row puts bounded windows at 0.05–4 s and
// monolithic scans at minutes); GapBuckets cover Table II's inter-update
// range (the paper reports a baseline p95 of ~10 minutes vs APTrace's
// seconds); RowBuckets cover per-query retrieval sizes around the
// re-splitting cap of 8 rows.
// PipelineBuckets cover the triage pipeline's wall-clock latencies, from
// sub-millisecond SSE flushes up to multi-minute end-to-end analyses.
// GCPauseBuckets cover Go stop-the-world pauses (microseconds to tens of
// milliseconds).
var (
	LatencyBuckets  = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 300, 1800}
	GapBuckets      = []float64{0.1, 0.5, 1, 2, 4, 8, 16, 30, 60, 120, 300, 600, 1200, 3600}
	RowBuckets      = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 1024}
	PipelineBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 300}
	GCPauseBuckets  = []float64{1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1}
)
