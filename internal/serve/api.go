package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"aptrace/internal/audit"
	"aptrace/internal/event"
	"aptrace/internal/explain"
	"aptrace/internal/graph"
	"aptrace/internal/obs"
	"aptrace/internal/telemetry"
)

// submitRequest is the POST /api/v1/sessions body.
type submitRequest struct {
	// Tenant attributes the session for quota purposes ("default" when
	// empty — admission control is per tenant).
	Tenant string `json:"tenant"`
	// Script is the BDL source to run.
	Script string `json:"script"`
	// EventID, when nonzero, pins the starting event (the alert); zero
	// lets the plan locate its own start by scanning.
	EventID uint64 `json:"event_id"`
}

// retryAfter is the hint a 429 carries, in its Retry-After header and its
// body's retry_after_seconds.
const retryAfter = 2 * time.Second

// errorResponse is every non-2xx JSON body.
type errorResponse struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`
}

// Handler returns the daemon's full HTTP surface:
//
//	POST /api/v1/ingest                  NDJSON audit records -> live store
//	POST /api/v1/sessions                submit BDL, 202 {id} | 429 | 503
//	GET  /api/v1/sessions                list sessions
//	GET  /api/v1/sessions/{id}           one session's summary
//	GET  /api/v1/sessions/{id}/updates   graph deltas as SSE
//	GET  /api/v1/sessions/{id}/explain   decision records + prune frontier
//	GET  /api/v1/sessions/{id}/timeline  Chrome trace-event JSON
//	POST /api/v1/sessions/{id}/pause|resume|stop
//	GET  /api/v1/alerts                  detector hits
//	GET  /healthz                        liveness + drain state
//	GET  /readyz                         readiness, per-component (200|503)
//	GET  /ops                            operator summary: SLIs, watchdog, subscribers
//	GET  /debug/journal                  lifecycle journal query (when enabled)
//	GET  /debug/shards                   shard layout and heat, query profile
//	GET  /metrics, /debug/*              the telemetry registry's mux
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /api/v1/ingest", s.timed("ingest", s.handleIngest))
	mux.Handle("POST /api/v1/sessions", s.timed("sessions_submit", s.handleSubmit))
	mux.Handle("GET /api/v1/sessions", s.timed("sessions_list", s.handleList))
	mux.Handle("GET /api/v1/sessions/{id}", s.timed("sessions_get", s.handleGet))
	mux.Handle("GET /api/v1/sessions/{id}/updates", http.HandlerFunc(s.handleUpdates))
	mux.Handle("GET /api/v1/sessions/{id}/explain", s.timed("sessions_explain", s.handleExplain))
	mux.Handle("GET /api/v1/sessions/{id}/timeline", s.timed("sessions_timeline", s.handleTimeline))
	mux.Handle("POST /api/v1/sessions/{id}/pause", s.timed("sessions_pause", s.lifecycle((*Run).Pause)))
	mux.Handle("POST /api/v1/sessions/{id}/resume", s.timed("sessions_resume", s.lifecycle((*Run).Resume)))
	mux.Handle("POST /api/v1/sessions/{id}/stop", s.timed("sessions_stop", s.lifecycle((*Run).Stop)))
	mux.Handle("GET /api/v1/alerts", s.timed("alerts", s.handleAlerts))
	mux.Handle("GET /healthz", s.timed("healthz", s.handleHealthz))
	mux.Handle("GET /readyz", s.timed("readyz", s.handleReadyz))
	mux.Handle("GET /ops", s.timed("ops", s.handleOps))
	reg := s.reg.Handler()
	mux.Handle("/metrics", reg)
	mux.Handle("/debug/", reg)
	if s.journal != nil {
		// More specific than the registry's /debug/ catch-all, so it wins.
		mux.Handle("GET /debug/journal", s.journal.Handler())
	}
	// More specific than /debug/, so it wins over the registry mux.
	mux.Handle("GET /debug/shards", s.ShardsHandler())
	return mux
}

// ShardsHandler serves GET /debug/shards. apserve mounts this one handler on
// its -metrics mux as well, so both addresses serve the same body.
func (s *Server) ShardsHandler() http.Handler { return s.timed("shards", s.handleShards) }

// timed wraps a handler with a per-endpoint latency histogram
// (aptrace_http_<name>_seconds). SSE streams are excluded — their duration
// is the client's attention span, not a service latency.
func (s *Server) timed(name string, h http.HandlerFunc) http.Handler {
	hist := s.reg.Histogram("aptrace_http_"+name+"_seconds", telemetry.LatencyBuckets)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.Observe(time.Since(start).Seconds())
	})
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError maps manager errors to their HTTP shape.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrSaturated):
		retry := int(retryAfter.Seconds())
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error(), RetryAfter: retry})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrEvicted):
		// 410, not 404: the session existed and retention dropped it, so a
		// client holding the ID should stop polling instead of retrying.
		writeJSON(w, http.StatusGone, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrNotFound):
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	}
}

// ingestErrorResponse is the non-2xx ingest body. Ingest is not atomic —
// the chunks committed before the failing one are already durably stored —
// so the error carries the stats of what went in before the stream aborted.
type ingestErrorResponse struct {
	Error string            `json:"error"`
	Stats audit.IngestStats `json:"stats"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	stats, err := s.IngestReader(r.Body)
	if err != nil {
		// A line exceeding the scanner's frame bound is the client's fault
		// (400); store/WAL failures are the server's (500). Malformed lines
		// never error — they are counted in stats and skipped.
		status := http.StatusInternalServerError
		if errors.Is(err, bufio.ErrTooLong) {
			status = http.StatusBadRequest
		}
		writeJSON(w, status, ingestErrorResponse{Error: err.Error(), Stats: stats})
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid JSON body: " + err.Error()})
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	var alert *event.Event
	if req.EventID != 0 {
		snap, err := s.Snapshot()
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
			return
		}
		e, ok := snap.EventByID(event.EventID(req.EventID))
		if !ok {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("event %d not found", req.EventID)})
			return
		}
		alert = &e
	}
	// Analyst submissions start their own correlation chain here.
	run, err := s.mgr.SubmitCorr(s.newCorr(), req.Tenant, req.Script, alert, false, "")
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, run.Summary())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	runs := s.mgr.Runs()
	out := make([]Summary, len(runs))
	for i, run := range runs {
		out[i] = run.Summary()
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

func (s *Server) run(w http.ResponseWriter, r *http.Request) (*Run, bool) {
	run, err := s.mgr.Run(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return nil, false
	}
	return run, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if run, ok := s.run(w, r); ok {
		writeJSON(w, http.StatusOK, run.Summary())
	}
}

// lifecycle adapts Pause/Resume/Stop to a handler.
func (s *Server) lifecycle(op func(*Run) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		run, ok := s.run(w, r)
		if !ok {
			return
		}
		if err := op(run); err != nil {
			writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, run.Summary())
	}
}

// doneEvent is the terminal SSE payload. Subscriber and DeliveredUpdates
// expose this subscriber's identity and delivery accounting so a client
// can tell "I missed N updates" apart from "the run produced N fewer".
type doneEvent struct {
	Summary
	Subscriber       int `json:"subscriber,omitempty"`
	DeliveredUpdates int `json:"delivered_updates"`
	DroppedUpdates   int `json:"dropped_updates"`
}

// maxSSEBatch is the size at which the stream handler closes a batch of
// update frames and writes it: large enough that a backlog of thousands of
// frames is a few writes, small enough that the first frames of a long
// backlog reach the client before the last are encoded.
const maxSSEBatch = 64 << 10

// handleUpdates streams a session's graph deltas as Server-Sent Events:
// the backlog first, then live updates as the executor's OnUpdate hook
// publishes them, and finally one "done" event carrying the run summary and
// this subscriber's delivery accounting. Backlog, live stream and the drain
// before "done" are one loop: each wake-up claims everything published since
// the last, encodes it into one reused buffer and hands it to the client with
// one Write and one Flush per maxSSEBatch bytes — a handler that falls behind
// the executor catches up in batches instead of paying a write(2) per frame.
// The stream ends when the run finishes or the client disconnects; a
// canceled client can never block the analysis (publication never blocks).
func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	views, sub := run.hub.subscribe(s.cfg.SubscriberBuffer)
	defer run.hub.unsubscribe(sub)
	attached := time.Now()
	if sub != nil {
		run.scope.Emit(obs.Info, obs.StageSSESubscribe,
			fmt.Sprintf("subscriber %d: %d backlog", sub.id, sub.start), int64(sub.start), 0)
	}
	// closeEntry journals the subscriber's detachment. Call only after
	// unsubscribe: the hub no longer touches sub, so its counters are
	// stable (and the unsubscribe call's lock ordered those writes before
	// this read).
	closeEntry := func(reason string) {
		if sub == nil {
			return
		}
		run.scope.Emit(obs.Info, obs.StageSSEClose,
			fmt.Sprintf("subscriber %d: %s, %d sent, %d dropped", sub.id, reason, sub.sent, sub.dropped),
			int64(sub.dropped), time.Since(attached))
	}

	var (
		st  = run.View()
		buf []byte
		seq int
	)
	write := func() bool {
		_, err := w.Write(buf)
		buf = buf[:0]
		if err != nil {
			return false
		}
		flusher.Flush()
		run.hub.opened()
		return true
	}
	// send frames the updates — views of the history, a slice per page they
	// lie on — and writes them out; it reports whether the client is still
	// there to read.
	send := func(views [][]graph.Update) bool {
		if st == nil {
			st = run.View() // the run may have started since subscribe
		}
		for _, updates := range views {
			for i := range updates {
				seq++
				buf = appendUpdateFrame(buf, st, seq, &updates[i])
				if len(buf) >= maxSSEBatch && !write() {
					return false
				}
			}
		}
		return len(buf) == 0 || write()
	}

	alive := send(views) // the backlog
	if len(views) == 0 {
		flusher.Flush() // nothing to replay yet: the client still gets its headers
	}
	for live := sub != nil; live && alive; {
		select {
		case <-sub.wake:
			var oldest time.Time
			views, oldest = run.hub.claim(sub, views[:0])
			if len(views) == 0 {
				continue // the poke outlived its updates: a claim took them
			}
			alive = send(views)
			// Live deliveries only, once per wake-up and for its oldest
			// update: backlog replay measures the client's arrival time, not
			// pipeline latency.
			if !oldest.IsZero() {
				s.slis.UpdateToSSEFlush.Observe(time.Since(oldest).Seconds())
			}
		case <-run.hub.done:
			// The run is over; what it published last is still claimable.
			views, _ = run.hub.claim(sub, views[:0])
			alive = send(views)
			live = false
		case <-r.Context().Done():
			alive = false
		}
	}
	if !alive {
		run.hub.unsubscribe(sub)
		closeEntry("client disconnected")
		return
	}
	dropped := run.hub.unsubscribe(sub)
	done := doneEvent{Summary: run.Summary(), DroppedUpdates: dropped}
	if sub != nil {
		done.Subscriber, done.DeliveredUpdates = sub.id, sub.sent
	}
	body, _ := json.Marshal(done) // plain data: cannot fail
	fmt.Fprintf(w, "event: done\ndata: %s\n\n", body)
	flusher.Flush()
	closeEntry("done")
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(w, r)
	if !ok {
		return
	}
	rec := run.Explain()
	if rec == nil {
		writeJSON(w, http.StatusConflict, errorResponse{Error: "session has not started"})
		return
	}
	// The recorder's own debug handler already renders records + frontier
	// as JSON; reuse it so the two surfaces cannot drift.
	rec.Handler().ServeHTTP(w, r)
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(w, r)
	if !ok {
		return
	}
	rec := run.Explain()
	if rec == nil {
		writeJSON(w, http.StatusConflict, errorResponse{Error: "session has not started"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	explain.WriteTrace(w, []*explain.Recorder{rec})
}

func (s *Server) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"alerts": s.Alerts()})
}

// healthResponse is the GET /healthz body.
type healthResponse struct {
	Status   string `json:"status"`
	Events   int    `json:"events"`
	Pending  int    `json:"pending_events"`
	Active   int    `json:"sessions_active"`
	Queued   int    `json:"sessions_queued"`
	Sessions int    `json:"sessions_total"`
	Alerts   int    `json:"alerts_total"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	active, queued, total := s.mgr.Counts()
	resp := healthResponse{
		Status: "ok", Active: active, Queued: queued, Sessions: total,
		Alerts: s.AlertsTotal(),
	}
	if s.Draining() {
		resp.Status = "draining"
	}
	if snap, err := s.Snapshot(); err == nil && snap != nil {
		resp.Events = snap.NumEvents()
	}
	if s.cfg.Live != nil {
		resp.Pending = s.cfg.Live.PendingEvents()
	}
	writeJSON(w, http.StatusOK, resp)
}
