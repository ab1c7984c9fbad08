package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"aptrace/internal/alerts"
	"aptrace/internal/audit"
	"aptrace/internal/event"
	"aptrace/internal/serve"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
	"aptrace/internal/workload"
)

// sampledRule is the benchmark-owned detector rule: it fires on a fixed set
// of ordinary events, so the pipeline launches a steady stream of auto-runs
// (the default rules alone fire a handful of times per dataset). The events
// are the "live" alert sample, named by the IDs the live store gives them.
type sampledRule struct{ ids map[event.EventID]bool }

func (sampledRule) Name() string { return "bench-sampled" }

func (r sampledRule) Check(e event.Event, _ *store.Store) (string, alerts.Severity, bool) {
	if !r.ids[e.ID] {
		return "", 0, false
	}
	return "sampled event", alerts.Low, true
}

// liveInput is what the collectors would send: the dataset exported once in
// auditd format and cut into ingest batches.
type liveInput struct {
	ds      *workload.Dataset
	batches [][]byte
	lines   []int           // records per batch
	order   []event.EventID // the dataset's event IDs in export order
	total   int
	exportS float64
	rules   []alerts.Rule // set by useSample
}

// exportBatches renders the dataset as auditd lines and cuts it into batches
// of at least batchLines records. A batch always ends on a second boundary:
// the daemon's incremental detection resumes at the second after the last
// one it scanned, so events of one second split over two batches would never
// be scanned (see README, findings).
func exportBatches(ds *workload.Dataset, sz sizes) (*liveInput, error) {
	t0 := time.Now()
	var wire bytes.Buffer
	n, err := audit.Export(ds.Store, &wire, audit.FormatAuditd)
	if err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
	in := &liveInput{ds: ds, total: n, exportS: time.Since(t0).Seconds()}

	// Export walks the store in time order, so line i is the i-th event of
	// this scan.
	times := make([]int64, 0, n)
	min, max, _ := ds.Store.TimeRange()
	if err := ds.Store.Scan(min, max+1, func(e event.Event) bool {
		times = append(times, e.Time)
		in.order = append(in.order, e.ID)
		return true
	}); err != nil {
		return nil, err
	}
	raw := wire.Bytes()
	start, count, line := 0, 0, 0
	for off := 0; off < len(raw); line++ {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			nl = len(raw) - off - 1
		}
		off += nl + 1
		count++
		last := line+1 >= len(times)
		if last || (count >= sz.LiveBatch && times[line+1] != times[line]) {
			in.batches = append(in.batches, raw[start:off])
			in.lines = append(in.lines, count)
			start, count = off, 0
		}
	}
	return in, nil
}

// useSample makes the benchmark-owned rule fire on the sample's events. The
// live store numbers events in arrival order, so the event exported i-th
// becomes live event i+1.
func (in *liveInput) useSample(sample []alert) {
	chosen := make(map[event.EventID]bool, len(sample))
	for _, a := range sample {
		chosen[a.Event.ID] = true
	}
	rule := sampledRule{ids: make(map[event.EventID]bool, len(sample))}
	for i, id := range in.order {
		if chosen[id] {
			rule.ids[event.EventID(i+1)] = true
		}
	}
	in.rules = append(alerts.DefaultRules(), rule)
}

// livePipeline is the live_pipeline workload: one round streams the whole
// export through a fresh daemon over a fresh live store.
type livePipeline struct {
	c  *config
	w  *world
	in *liveInput
}

func (l *livePipeline) setup(w *world) error {
	l.w = w
	var err error
	l.in, err = w.liveData()
	return err
}

func (l *livePipeline) prepare() error {
	sample, err := l.w.sample("live")
	if err != nil {
		return err
	}
	l.in.useSample(sample)
	return nil
}

func (l *livePipeline) close() {}

// liveConfig is the live_pipeline daemon: every alert auto-launches a
// hop-bounded run, charged to a tenant whose quota never rejects one.
func liveConfig(live *store.Live, rules []alerts.Rule, c *config) serve.Config {
	return serve.Config{
		Live:           live,
		Rules:          rules,
		AutoBacktrack:  true,
		AutoHops:       c.sz.LiveHops,
		Workers:        c.Workers,
		QueueCap:       1 << 14,
		Quota:          serve.Quota{MaxActive: c.Workers, MaxQueued: 1 << 14},
		RetainSessions: 32,
		RetainAlerts:   -1,
	}
}

// alertOut is one alert's path through the pipeline.
type alertOut struct {
	ToAlert, ToGraph time.Duration // batch POST sent → alert recorded / auto-run finished
	Summary          serve.Summary
}

func (l *livePipeline) round(tr *tracer, gate bool) (roundStats, error) {
	rs := roundStats{Series: map[string][]float64{}}
	dir, err := os.MkdirTemp(l.c.TmpDir, "live-")
	if err != nil {
		return rs, err
	}
	defer os.RemoveAll(dir)
	live, err := store.OpenLive(dir, simclock.Real{})
	if err != nil {
		return rs, err
	}
	defer live.Close()
	d, err := startDaemon(liveConfig(live, l.in.rules, l.c))
	if err != nil {
		return rs, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	defer client.CloseIdleConnections()

	var (
		mu   sync.Mutex
		outs []alertOut
		wg   sync.WaitGroup
		seen int
	)
	t0 := time.Now()
	for bi, body := range l.in.batches {
		trace := fmt.Sprintf("batch-%d", bi)
		root := tr.begin(trace, "batch", -1)
		sent := time.Now()
		sp := tr.begin(trace, "serve.ingest_post", root)
		resp, err := client.Post(d.base+"/api/v1/ingest", "text/plain", bytes.NewReader(body))
		rs.Attempted++
		if err != nil {
			tr.end(sp)
			tr.end(root)
			rs.Failed++
			rs.Problems = append(rs.Problems, err.Error())
			continue
		}
		var stats audit.IngestStats
		text := readAll(resp)
		tr.end(sp)
		rs.Series["ingest_ack_ms"] = append(rs.Series["ingest_ack_ms"], ms(time.Since(sent)))
		if err := json.Unmarshal([]byte(text), &stats); err != nil || resp.StatusCode != http.StatusOK ||
			stats.Ingested != l.in.lines[bi] || stats.Rejected != 0 {
			rs.Failed++
			rs.Problems = append(rs.Problems, fmt.Sprintf("batch %d: HTTP %d, %d of %d lines ingested, %d rejected",
				bi, resp.StatusCode, stats.Ingested, l.in.lines[bi], stats.Rejected))
		}
		rs.Events += stats.Ingested

		sp = tr.begin(trace, "serve.detect_now", root)
		dt := time.Now()
		n, err := d.srv.DetectNow()
		tr.end(sp)
		alerted := time.Now()
		rs.Series["detect_now_ms"] = append(rs.Series["detect_now_ms"], ms(alerted.Sub(dt)))
		tr.end(root)
		if err != nil {
			rs.Problems = append(rs.Problems, fmt.Sprintf("batch %d: detect: %v", bi, err))
			continue
		}
		recs := d.srv.Alerts()
		for _, rec := range recs[seen : seen+n] {
			rs.Attempted++
			run, err := d.srv.Manager().Run(rec.SessionID)
			if err != nil {
				// No session: the auto-run was rejected (or already evicted).
				rs.Failed++
				rs.Problems = append(rs.Problems, fmt.Sprintf("alert %d (%s): no auto-run: %v", rec.Seq, rec.Rule, err))
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-run.Done()
				s := run.Summary()
				tr.add(trace, "serve.queue_wait", root, s.Created, s.Started)
				tr.add(trace, "serve.exec", root, s.Started, s.Finished)
				mu.Lock()
				outs = append(outs, alertOut{ToAlert: alerted.Sub(sent), ToGraph: s.Finished.Sub(sent), Summary: s})
				mu.Unlock()
			}()
		}
		seen += n
	}
	wg.Wait()
	rs.Wall = time.Since(t0)

	for _, o := range outs {
		if o.Summary.State != "done" {
			rs.Failed++
			rs.Problems = append(rs.Problems, fmt.Sprintf("auto-run %s ended %s: %s", o.Summary.ID, o.Summary.State, o.Summary.Error))
			continue
		}
		rs.Done++
		rs.Samples = append(rs.Samples, sample{Counted: o.Summary.Edges >= heavyEdges, RunMs: ms(o.ToGraph), FirstMs: ms(o.ToAlert)})
	}
	if gate {
		rs.Problems = append(rs.Problems, l.gate(d, live, dir)...)
		stopped = true
	}
	return rs, nil
}

// gate is the live correctness gate: the alerts the daemon raised batch by
// batch equal an offline scan of the final snapshot, and after Close and
// OpenLive the store holds the same events (durability). It stops the daemon.
func (l *livePipeline) gate(d *daemon, live *store.Live, dir string) []string {
	var problems []string
	snap, err := d.srv.Snapshot()
	if err != nil {
		return []string{err.Error()}
	}
	if snap.NumEvents() != l.in.total {
		problems = append(problems, fmt.Sprintf("final snapshot holds %d events, %d were sent", snap.NumEvents(), l.in.total))
	}
	min, max, _ := snap.TimeRange()
	offline, err := alerts.NewDetector(l.in.rules...).Scan(snap, min, max+1)
	if err != nil {
		return append(problems, "offline scan: "+err.Error())
	}
	key := func(rule string, id uint64) string { return fmt.Sprintf("%s/%d", rule, id) }
	var want, got []string
	for _, a := range offline {
		want = append(want, key(a.Rule, uint64(a.Event.ID)))
	}
	for _, rec := range d.srv.Alerts() {
		got = append(got, key(rec.Rule, rec.EventID))
	}
	sort.Strings(want)
	sort.Strings(got)
	if fmt.Sprint(want) != fmt.Sprint(got) {
		problems = append(problems, fmt.Sprintf("live detection raised %d alerts, an offline scan of the final snapshot raises %d (or different ones)", len(got), len(want)))
	}
	sig, err := snap.ContentSignature()
	if err != nil {
		return append(problems, err.Error())
	}
	if _, clean := d.stop(); !clean {
		problems = append(problems, "drain was not clean")
	}
	if err := live.Close(); err != nil {
		return append(problems, "close: "+err.Error())
	}
	again, err := store.OpenLive(dir, simclock.Real{})
	if err != nil {
		return append(problems, "reopen: "+err.Error())
	}
	defer again.Close()
	resnap, err := again.Snapshot()
	if err != nil {
		return append(problems, "reopen snapshot: "+err.Error())
	}
	resig, err := resnap.ContentSignature()
	if err != nil {
		return append(problems, err.Error())
	}
	if resnap.NumEvents() != snap.NumEvents() || resig != sig {
		problems = append(problems, fmt.Sprintf("after reopen: %d events signature %016x, before close: %d events signature %016x",
			resnap.NumEvents(), resig, snap.NumEvents(), sig))
	}
	return problems
}
