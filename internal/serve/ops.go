package serve

import (
	"fmt"
	"net/http"
	"time"

	"aptrace/internal/obs"
	"aptrace/internal/telemetry"
)

// readyComponent is one readiness check's result.
type readyComponent struct {
	OK     bool   `json:"ok"`
	Status string `json:"status"` // "ok", "disabled", or what is wrong
}

// readyResponse is the GET /readyz body: overall verdict plus the
// per-component breakdown an operator needs to tell a snapshot failure
// from a stalled detector from a saturated fleet.
type readyResponse struct {
	Status     string                    `json:"status"` // "ready" | "unavailable"
	Components map[string]readyComponent `json:"components"`
}

// detectStaleAfter is how many detection intervals may elapse without a
// completed pass before the detector component reads as stalled.
const detectStaleAfter = 3

// readiness evaluates every component at now. Split from the handler so
// tests drive degraded states with a controlled clock.
func (s *Server) readiness(now time.Time) readyResponse {
	comps := make(map[string]readyComponent, 4)

	// store: the API is useless without a queryable snapshot.
	if snap, err := s.Snapshot(); err != nil {
		comps["store"] = readyComponent{Status: "snapshot: " + err.Error()}
	} else if snap == nil {
		comps["store"] = readyComponent{Status: "no snapshot"}
	} else {
		comps["store"] = readyComponent{OK: true, Status: "ok"}
	}

	// detector: when the background loop is configured, a pass must have
	// completed within detectStaleAfter intervals — measured from startup
	// until the first pass lands, so a fresh daemon gets a grace window.
	if s.cfg.DetectEvery <= 0 {
		comps["detector"] = readyComponent{OK: true, Status: "disabled"}
	} else {
		since := s.startedAt
		if ns := s.lastDetect.Load(); ns != 0 {
			since = time.Unix(0, ns)
		}
		age := now.Sub(since)
		if limit := detectStaleAfter * s.cfg.DetectEvery; age > limit {
			comps["detector"] = readyComponent{
				Status: fmt.Sprintf("stalled: last pass %s ago (limit %s)", age.Round(time.Millisecond), limit),
			}
		} else {
			comps["detector"] = readyComponent{OK: true, Status: "ok"}
		}
	}

	// fleet: new submissions must be admissible.
	if s.mgr.accepting() {
		comps["fleet"] = readyComponent{OK: true, Status: "ok"}
	} else {
		comps["fleet"] = readyComponent{Status: "not accepting submissions"}
	}

	// drain: a draining daemon is alive (healthz) but not ready.
	if s.Draining() {
		comps["drain"] = readyComponent{Status: "draining"}
	} else {
		comps["drain"] = readyComponent{OK: true, Status: "ok"}
	}

	resp := readyResponse{Status: "ready", Components: comps}
	for _, c := range comps {
		if !c.OK {
			resp.Status = "unavailable"
			break
		}
	}
	return resp
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	resp := s.readiness(time.Now())
	status := http.StatusOK
	if resp.Status != "ready" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// sliSummary is one pipeline-latency histogram reduced to what an
// operator scans for: volume and two latency quantiles.
type sliSummary struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
}

// runSubscribers is one run's attached SSE subscribers.
type runSubscribers struct {
	Run         string    `json:"run"`
	Subscribers []subStat `json:"subscribers"`
}

// opsResponse is the GET /ops body: the daemon's operator dashboard as
// one JSON document.
type opsResponse struct {
	UptimeSeconds float64               `json:"uptime_seconds"`
	Draining      bool                  `json:"draining"`
	Sessions      map[string]int        `json:"sessions"`
	Queue         map[string]int        `json:"queue"`
	AlertsTotal   int                   `json:"alerts_total"`
	Ingest        map[string]int64      `json:"ingest"`
	SLIs          map[string]sliSummary `json:"slis"`
	Journal       *obs.Stats            `json:"journal,omitempty"`
	Watchdog      obs.Summary           `json:"watchdog"`
	Subscribers   []runSubscribers      `json:"subscribers,omitempty"`
}

// sliNames maps the exported histogram metric names to their /ops keys.
var sliNames = map[string]string{
	telemetry.MetricSLIIngestToDetect:      "ingest_to_detect",
	telemetry.MetricSLIDetectToLaunch:      "detect_to_launch",
	telemetry.MetricSLILaunchToFirstUpdate: "launch_to_first_update",
	telemetry.MetricSLISubmitToTerminal:    "submit_to_terminal",
	telemetry.MetricSLIUpdateToSSEFlush:    "update_to_sse_flush",
}

func (s *Server) handleOps(w http.ResponseWriter, _ *http.Request) {
	active, queued, total := s.mgr.Counts()
	qlen, qcap := s.mgr.queue()
	c := s.opsCounts()

	resp := opsResponse{
		UptimeSeconds: time.Since(s.startedAt).Seconds(),
		Draining:      s.Draining(),
		Sessions: map[string]int{
			"active": active, "queued": queued, "total": total,
			"submitted": int(c.Submissions), "rejected": int(c.Rejected),
		},
		Queue:       map[string]int{"len": qlen, "cap": qcap},
		AlertsTotal: s.AlertsTotal(),
		Ingest: map[string]int64{
			"lines":         c.IngestLines,
			"decode_errors": c.DecodeErrors,
		},
		SLIs:     make(map[string]sliSummary, len(sliNames)),
		Watchdog: s.watch.Summarize(),
	}
	snap := s.reg.Snapshot()
	for metric, key := range sliNames {
		h, ok := snap.Histograms[metric]
		if !ok {
			continue
		}
		resp.SLIs[key] = sliSummary{
			Count: h.Count,
			P50Ms: h.Quantile(0.5) * 1000,
			P95Ms: h.Quantile(0.95) * 1000,
		}
	}
	if s.journal != nil {
		st := s.journal.Stats()
		resp.Journal = &st
	}
	// Per-run SSE delivery accounting, for runs with attached subscribers.
	for _, run := range s.mgr.Runs() {
		if stats := run.hub.stats(); len(stats) > 0 {
			resp.Subscribers = append(resp.Subscribers, runSubscribers{Run: run.ID, Subscribers: stats})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
