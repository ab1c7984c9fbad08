package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aptrace/internal/serve"
	"aptrace/internal/store"
	"aptrace/internal/telemetry"
)

// daemon is an in-process triage server listening on real loopback HTTP.
type daemon struct {
	srv  *serve.Server
	http *http.Server
	base string // http://127.0.0.1:port
}

func startDaemon(cfg serve.Config) (*daemon, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	hs, addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &daemon{srv: srv, http: hs, base: "http://" + addr}, nil
}

// stop drains the daemon and closes its listener; it returns how long the
// drain took and whether it was clean.
func (d *daemon) stop() (time.Duration, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t0 := time.Now()
	rep := d.srv.Drain(ctx)
	took := time.Since(t0)
	d.http.Close()
	return took, rep.Clean
}

// sessionOut is one analyst session as its client saw it.
type sessionOut struct {
	Submit, First, Done time.Duration // POST round trip; POST sent → first update frame; → done frame
	Frames              int           // update frames read
	Summary             doneFrame
	Err                 error
}

// doneFrame is the terminal SSE payload (serve's doneEvent).
type doneFrame struct {
	serve.Summary
	DeliveredUpdates int `json:"delivered_updates"`
	DroppedUpdates   int `json:"dropped_updates"`
}

// runSession submits one script and reads its update stream to the done
// frame, as an analyst's console would.
func runSession(client *http.Client, base, tenant string, a alert, tr *tracer) sessionOut {
	var out sessionOut
	trace := fmt.Sprintf("session-%d", a.Event.ID)
	root := tr.begin(trace, "session", -1)
	defer tr.end(root)
	body, _ := json.Marshal(map[string]any{"tenant": tenant, "script": a.Script, "event_id": uint64(a.Event.ID)})

	t0 := time.Now()
	sp := tr.begin(trace, "serve.submit", root)
	resp, err := client.Post(base+"/api/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(sp)
		out.Err = err
		return out
	}
	var sum serve.Summary
	err = json.NewDecoder(resp.Body).Decode(&sum)
	resp.Body.Close()
	tr.end(sp)
	out.Submit = time.Since(t0)
	if resp.StatusCode != http.StatusAccepted {
		out.Err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		return out
	}
	if err != nil {
		out.Err = fmt.Errorf("submit: %w", err)
		return out
	}

	sp = tr.begin(trace, "serve.sse_connect", root)
	resp, err = client.Get(base + "/api/v1/sessions/" + sum.ID + "/updates")
	tr.end(sp)
	if err != nil {
		out.Err = err
		return out
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		out.Err = fmt.Errorf("updates: HTTP %d", resp.StatusCode)
		return out
	}
	stream := tr.begin(trace, "serve.sse_stream", root)
	defer tr.end(stream)
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	kind := ""
	for {
		line, err := rd.ReadSlice('\n')
		if err != nil {
			out.Err = fmt.Errorf("stream ended before the done frame: %w", err)
			return out
		}
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			kind = string(bytes.TrimSpace(line[len("event: "):]))
		case bytes.HasPrefix(line, []byte("data: ")):
			if kind == "update" {
				if out.Frames++; out.Frames == 1 {
					out.First = time.Since(t0)
					tr.instant(trace, "first_update", stream)
				}
				continue
			}
			if kind != "done" {
				continue
			}
			out.Done = time.Since(t0)
			if err := json.Unmarshal(line[len("data: "):], &out.Summary); err != nil {
				out.Err = fmt.Errorf("done frame: %w", err)
				return out
			}
			s := out.Summary
			tr.add(trace, "serve.queue_wait", root, s.Created, s.Started)
			tr.add(trace, "serve.exec", root, s.Started, s.Finished)
			return out
		}
	}
}

// check is the per-session gate: the run is done, and every update the
// executor produced reached this client (none dropped by the hub).
func (o sessionOut) check() error {
	s := o.Summary
	switch {
	case o.Err != nil:
		return o.Err
	case s.State != "done":
		return fmt.Errorf("session %s ended %s: %s", s.ID, s.State, s.Error)
	case s.DroppedUpdates != 0:
		return fmt.Errorf("session %s: %d updates dropped", s.ID, s.DroppedUpdates)
	case o.Frames != s.Updates:
		return fmt.Errorf("session %s: %d frames delivered, summary says %d updates", s.ID, o.Frames, s.Updates)
	}
	return nil
}

// sessions runs the alerts as analyst sessions from `clients` closed-loop
// clients, each its own tenant with its own connection pool.
func sessions(base string, alerts []alert, clients int, tr *tracer) ([]sessionOut, time.Duration) {
	outs := make([]sessionOut, len(alerts))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
			defer client.CloseIdleConnections()
			tenant := fmt.Sprintf("analyst-%d", c)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(alerts) {
					return
				}
				outs[i] = runSession(client, base, tenant, alerts[i], tr)
			}
		}(c)
	}
	wg.Wait()
	return outs, time.Since(t0)
}

// staticConfig is the serve_static daemon: quota and queue sized so that a
// closed loop of `workers` clients is never rejected.
func staticConfig(st *store.Store, c *config, reg *telemetry.Registry) serve.Config {
	return serve.Config{
		Source:           serve.StaticSource(st),
		Workers:          c.Workers,
		QueueCap:         1024,
		Quota:            serve.Quota{MaxActive: c.Workers, MaxQueued: 64},
		SubscriberBuffer: c.sz.SubscriberBuffer,
		RetainSessions:   32,
		Telemetry:        reg,
	}
}

// serveStatic is the serve_static workload.
type serveStatic struct {
	c      *config
	w      *world
	d      *daemon
	alerts []alert
}

func (s *serveStatic) setup(w *world) error {
	s.w = w
	ds, err := w.flat()
	if err != nil {
		return err
	}
	s.d, err = startDaemon(staticConfig(ds.Store, s.c, nil))
	return err
}

func (s *serveStatic) prepare() error {
	var err error
	s.alerts, err = s.w.sample("serve")
	return err
}

func (s *serveStatic) close() {
	if s.d != nil {
		s.d.stop()
		s.d = nil
	}
}

func (s *serveStatic) round(tr *tracer, gate bool) (roundStats, error) {
	outs, wall := sessions(s.d.base, s.alerts, s.c.Workers, tr)
	rs := roundStats{Wall: wall, Attempted: len(outs), Series: map[string][]float64{}}
	for _, o := range outs {
		if err := o.check(); err != nil {
			rs.Failed++
			rs.Problems = append(rs.Problems, err.Error())
			continue
		}
		rs.Done++
		rs.Samples = append(rs.Samples, sample{Counted: o.Summary.Edges >= heavyEdges, RunMs: ms(o.Done), FirstMs: ms(o.First)})
		rs.Series["sse_frames"] = append(rs.Series["sse_frames"], float64(o.Frames))
	}
	if gate {
		rs.Problems = append(rs.Problems, s.verify()...)
	}
	return rs, nil
}

func (s *serveStatic) verify() []string {
	// The per-session gate ran in every round; here the daemon as a whole
	// must not have rejected or dropped anything.
	var problems []string
	reg := s.d.srv.Telemetry()
	if n := reg.Counter(telemetry.MetricServeSessionsRejected).Value(); n != 0 {
		problems = append(problems, fmt.Sprintf("daemon rejected %d submissions", n))
	}
	if n := reg.Counter(telemetry.MetricServeUpdatesDropped).Value(); n != 0 {
		problems = append(problems, fmt.Sprintf("daemon dropped %d updates", n))
	}
	return problems
}

// readAll drains and closes a response body, returning it as text.
func readAll(resp *http.Response) string {
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return strings.TrimSpace(string(b))
}
