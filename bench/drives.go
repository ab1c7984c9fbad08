package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"aptrace/internal/alerts"
	"aptrace/internal/audit"
	"aptrace/internal/event"
	"aptrace/internal/fleet"
	"aptrace/internal/memo"
	"aptrace/internal/qprof"
	"aptrace/internal/refiner"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
	"aptrace/internal/telemetry"
)

// The layer drives time calls into each layer's public functions, one layer
// at a time, on the inputs of the seed (the same datasets and alerts the
// workloads run). They run in the traced run only, after the workload, and
// every traced run performs all of them: the per-layer numbers depend on the
// seed and the commit, not on which workload was traced.

// drive runs every layer drive and adds the per-layer metrics to rep.
func drive(c *config, w *world, rep *report) error {
	flat, err := w.flat()
	if err != nil {
		return err
	}
	sharded, err := w.sharded()
	if err != nil {
		return err
	}
	in, err := w.liveData()
	if err != nil {
		return err
	}
	all, err := w.sample("triage")
	if err != nil {
		return err
	}
	liveSample, err := w.sample("live")
	if err != nil {
		return err
	}
	in.useSample(liveSample)
	sub := subset(all, c.sz.DriveAlerts)

	rep.add("workload.generate_s", w.genS["flat"], "s", 1, "generate + seal, flat")
	rep.add("store.seal_flat_s", flat.SealWall.Seconds(), "s", 1, "")
	rep.add("store.seal_sharded_s", sharded.SealWall.Seconds(), "s", 1, "")
	rep.add("audit.export_s", in.exportS, "s", 1, fmt.Sprintf("%d events", in.total))

	var graphs [][]event.ObjID
	var qs []storeQuery
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"core+fleet", func() (err error) {
			graphs, err = driveCore(c, flat.Store, sub, rep)
			qs = querySet(sub, graphs, c.sz.DriveQueries)
			return err
		}},
		{"store (sealed)", func() error { return driveSealed(flat.Store, sharded.Store, qs, rep) }},
		{"memo", func() error { return driveMemo(c, flat.Store, sub, qs, rep) }},
		{"alerts+refiner", func() error { return driveDetect(flat.Store, in.rules, all, rep) }},
		{"store (live)+audit", func() error { return driveLiveStore(c, in, rep) }},
		{"serve", func() error { return driveServe(c, flat.Store, sub, in, rep) }},
	} {
		t0 := time.Now()
		if err := step.run(); err != nil {
			return fmt.Errorf("%s: %w", step.name, err)
		}
		fmt.Fprintf(c.Log, "drive %-20s %6.2f s\n", step.name, time.Since(t0).Seconds())
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	rep.add("proc.cpu_user_s", tv(ru.Utime), "s", 1, "whole traced run")
	rep.add("proc.cpu_sys_s", tv(ru.Stime), "s", 1, "")
	rep.add("proc.gc_pause_ms", float64(m.PauseTotalNs)/1e6, "ms", 1, "")
	rep.add("proc.total_alloc_gb", float64(m.TotalAlloc)/(1<<30), "GB", 1, "")
	rep.add("proc.num_gc", float64(m.NumGC), "count", 1, "")
	return nil
}

// subset keeps n heavy alerts, evenly spaced over the sample's heavy alerts
// (so over time, and graph size), and the first n light ones.
func subset(all []alert, n int) []alert {
	var heavy, light []alert
	for _, a := range all {
		if a.Heavy {
			heavy = append(heavy, a)
		} else if len(light) < n {
			light = append(light, a)
		}
	}
	if n > len(heavy) {
		n = len(heavy)
	}
	out := light
	for k := 0; k < n; k++ {
		out = append(out, heavy[(2*k+1)*len(heavy)/(2*n)])
	}
	return out
}

// mallocs reads the allocation counters the per-run costs are deltas of.
func mallocs() (objects, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// driveCore backtracks the subset serially (executor + maintainer + store,
// no fleet), then once more with every closure already cached, then in
// parallel for the fleet numbers. It returns the final graphs' nodes per
// alert for the store query set.
func driveCore(c *config, st *store.Store, sub []alert, rep *report) ([][]event.ObjID, error) {
	n := float64(len(sub))
	serial := func(cache *memo.Cache) ([]runOut, time.Duration, error) {
		outs := make([]runOut, len(sub))
		t0 := time.Now()
		for i, a := range sub {
			o, err := backtrack(st, a, cache, nil, false, time.Now())
			if err != nil {
				return nil, 0, err
			}
			outs[i] = o
		}
		return outs, time.Since(t0), nil
	}
	runtime.GC()
	objs0, bytes0 := mallocs()
	outs, wall, err := serial(nil)
	if err != nil {
		return nil, err
	}
	objs1, bytes1 := mallocs()
	var updates, windows, queries, rows float64
	nodes := make([][]event.ObjID, len(outs))
	for i, o := range outs {
		updates += float64(o.Updates)
		windows += float64(o.Windows)
		queries += float64(o.Queries)
		rows += float64(o.Rows)
		for _, nd := range o.graph.Nodes() {
			nodes[i] = append(nodes[i], nd.ID)
		}
	}
	outs = nil
	rep.add("core.run_ms_mean", ms(wall)/n, "ms", len(sub), "serial, memo off")
	rep.add("core.updates_per_run", updates/n, "count", len(sub), "")
	rep.add("core.windows_per_run", windows/n, "count", len(sub), "")
	rep.add("core.queries_per_run", queries/n, "count", len(sub), "")
	rep.add("core.rows_per_run", rows/n, "count", len(sub), "")
	rep.add("core.allocs_per_run", float64(objs1-objs0)/n, "count", len(sub), "")
	rep.add("core.bytes_per_run", float64(bytes1-bytes0)/n, "B", len(sub), "")

	// With every closure served from a cache that never evicts, what is left
	// is the executor's and the maintainer's own time.
	big := memo.New(4<<30, nil)
	if _, _, err := serial(big); err != nil {
		return nil, err
	}
	_, warm, err := serial(big)
	if err != nil {
		return nil, err
	}
	rep.add("core.run_memo_warm_ms", ms(warm)/n, "ms", len(sub), "same runs, every closure cached")
	big = nil
	runtime.GC()

	pool := fleet.New(c.Workers, nil)
	const noops = 20000
	t0 := time.Now()
	if err := fleet.ForEach(pool, noops, func(int) error { return nil }); err != nil {
		return nil, err
	}
	rep.add("fleet.dispatch_us", float64(time.Since(t0))/float64(time.Microsecond)/noops, "us", noops, "empty jobs")
	par, parWall, err := batch(st, sub, c.Workers, nil, nil, false)
	if err != nil {
		return nil, err
	}
	var busy time.Duration
	for _, o := range par {
		busy += o.Run
	}
	rep.add("fleet.serial_alerts_per_s", n/wall.Seconds(), "1/s", len(sub), "one worker")
	rep.add("fleet.parallel_efficiency", wall.Seconds()/(float64(c.Workers)*parWall.Seconds()), "share", len(sub), fmt.Sprintf("%d workers", c.Workers))
	rep.add("fleet.worker_busy_share", busy.Seconds()/(float64(c.Workers)*parWall.Seconds()), "share", len(sub), "")
	return nodes, nil
}

// querySet is one query per node of every final graph, over the range from
// the store's start to the alert's time, thinned evenly to at most max.
func querySet(sub []alert, nodes [][]event.ObjID, max int) []storeQuery {
	total := 0
	for _, ns := range nodes {
		total += len(ns)
	}
	stride := 1
	if total > max {
		stride = (total + max - 1) / max
	}
	var qs []storeQuery
	k := 0
	for i, ns := range nodes {
		for _, id := range ns {
			if k%stride == 0 {
				qs = append(qs, storeQuery{obj: id, to: sub[i].Event.Time})
			}
			k++
		}
	}
	return qs
}

// storeQuery is one backward store query: the dependents of obj (an ID in
// the flat store's object table) before to.
type storeQuery struct {
	obj event.ObjID
	to  int64
}

// driveSealed times the sealed store's query paths on the query set: flat
// and sharded posting counts and fetches, attribute walks, and what an
// attached query profiler adds.
func driveSealed(flat, sharded *store.Store, qs []storeQuery, rep *report) error {
	if len(qs) == 0 {
		return fmt.Errorf("empty store query set")
	}
	n := float64(len(qs))
	// The two stores intern objects in the same order; resolve through the
	// object anyway so a divergence cannot silently query the wrong object.
	shq := make([]storeQuery, len(qs))
	for i, q := range qs {
		id, ok := sharded.Lookup(flat.Object(q.obj))
		if !ok {
			return fmt.Errorf("object %d missing from the sharded store", q.obj)
		}
		shq[i] = storeQuery{obj: id, to: q.to}
	}
	type pass struct {
		countNs, appendNs, attrNs, allocs, rows float64
	}
	run := func(v *store.Store, qs []storeQuery) (pass, error) {
		var p pass
		from := v.GlobalStart()
		t0 := time.Now()
		for _, q := range qs {
			if _, err := v.CountBackward(q.obj, from, q.to); err != nil {
				return p, err
			}
		}
		p.countNs = float64(time.Since(t0)) / n
		var buf []event.Event
		objs0, _ := mallocs()
		t0 = time.Now()
		for _, q := range qs {
			var err error
			if buf, err = v.AppendBackward(buf[:0], q.obj, from, q.to); err != nil {
				return p, err
			}
			p.rows += float64(len(buf))
		}
		p.appendNs = float64(time.Since(t0)) / n
		objs1, _ := mallocs()
		p.allocs = float64(objs1-objs0) / n
		p.rows /= n
		t0 = time.Now()
		for _, q := range qs {
			if _, err := v.IsWriteThrough(q.obj, from, q.to); err != nil {
				return p, err
			}
			if _, _, _, err := v.FileTimes(q.obj, from, q.to); err != nil {
				return p, err
			}
		}
		p.attrNs = float64(time.Since(t0)) / (2 * n)
		return p, nil
	}

	fv, err := flat.View(simclock.Real{})
	if err != nil {
		return err
	}
	// One untimed pass first: the passes below are compared with each other,
	// so none of them may be the one that pulls the postings into the caches.
	if _, err := run(fv, qs); err != nil {
		return err
	}
	fp, err := run(fv, qs)
	if err != nil {
		return err
	}
	pv, err := flat.View(simclock.Real{})
	if err != nil {
		return err
	}
	pv.SetQueryProfiler(qprof.New())
	pp, err := run(pv, qs)
	if err != nil {
		return err
	}

	sv, err := sharded.View(simclock.Real{})
	if err != nil {
		return err
	}
	var fanout, routed float64
	sv.SetScatterObserver(func(f int, _ []int64) { fanout += float64(f); routed++ })
	sc0, busy0, save0 := sharded.ShardScatterStats()
	t0 := time.Now()
	sp, err := run(sv, shq)
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	sc1, busy1, save1 := sharded.ShardScatterStats()
	if sp.rows != fp.rows {
		return fmt.Errorf("sharded store returned %.1f rows per query, flat %.1f", sp.rows, fp.rows)
	}

	rep.add("store.count_ns_flat", fp.countNs, "ns", len(qs), "per CountBackward")
	rep.add("store.append_ns_flat", fp.appendNs, "ns", len(qs), "per AppendBackward, buffer reused")
	rep.add("store.append_allocs_flat", fp.allocs, "count", len(qs), "allocations per AppendBackward")
	rep.add("store.rows_per_query", fp.rows, "count", len(qs), "")
	rep.add("store.attr_walk_ns_flat", fp.attrNs, "ns", 2*len(qs), "IsWriteThrough + FileTimes")
	rep.add("store.query_profiled_overhead_ns", pp.appendNs-fp.appendNs, "ns", len(qs), "AppendBackward with qprof attached minus without")
	rep.add("store.count_ns_sharded", sp.countNs, "ns", len(qs), "")
	rep.add("store.append_ns_sharded", sp.appendNs, "ns", len(qs), "")
	rep.add("store.attr_walk_ns_sharded", sp.attrNs, "ns", 2*len(qs), "")
	mean := 0.0
	if routed > 0 {
		mean = fanout / routed
	}
	rep.add("store.scatter_fanout_mean", mean, "count", int(routed), "shards touched per routed query")
	rep.add("store.scatter_busy_share", float64(busy1-busy0)/float64(wall), "share", int(sc1-sc0), "timed scatter busy time over drive wall")
	save := 0.0
	if busy1 > busy0 {
		save = float64(save1-save0) / float64(busy1-busy0)
	}
	rep.add("store.scatter_savable_share", save, "share", int(sc1-sc0), "0 when scatters already ran concurrently")
	return nil
}

// driveMemo times the memo cache's miss+put and hit paths on the query set,
// then runs the subset under the heuristic script with the workload's cache
// budget for the cache's own effectiveness counters.
func driveMemo(c *config, st *store.Store, sub []alert, qs []storeQuery, rep *report) error {
	v, err := st.View(simclock.Real{})
	if err != nil {
		return err
	}
	mv, err := memo.New(4<<30, nil).Bind(v, "drive", nil)
	if err != nil {
		return err
	}
	from := v.GlobalStart()
	pass := func() (float64, error) {
		var buf []event.Event
		t0 := time.Now()
		for _, q := range qs {
			var err error
			if buf, err = mv.AppendBackward(buf[:0], q.obj, from, q.to); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)) / float64(len(qs)), nil
	}
	miss, err := pass()
	if err != nil {
		return err
	}
	hit, err := pass()
	if err != nil {
		return err
	}
	rep.add("memo.miss_put_ns", miss, "ns", len(qs), "AppendBackward through a cold cache")
	rep.add("memo.hit_ns", hit, "ns", len(qs), "same queries again")

	heur := make([]alert, len(sub))
	for i, a := range sub {
		heur[i] = alert{Event: a.Event, Script: heuristicScript}
	}
	cache := memo.New(c.sz.MemoBytes, nil)
	if _, _, err := batch(st, heur, c.Workers, cache, nil, false); err != nil {
		return err
	}
	s := cache.Stats()
	rep.add("memo.hit_rate", s.HitRate(), "share", int(s.Hits+s.Misses), "heuristic script, one batch")
	rep.add("memo.evictions", float64(s.Evictions), "count", 1, "")
	rep.add("memo.resident_mb", float64(s.Bytes)/(1<<20), "MB", 1, "")
	return nil
}

// driveDetect times the detector's scan and the script compiler.
func driveDetect(st *store.Store, rules []alerts.Rule, all []alert, rep *report) error {
	min, max, _ := st.TimeRange()
	t0 := time.Now()
	if _, err := alerts.NewDetector(rules...).Scan(st, min, max+1); err != nil {
		return err
	}
	rep.add("alerts.scan_ns_per_event", float64(time.Since(t0))/float64(st.NumEvents()), "ns", st.NumEvents(), "default rules + sampled rule")

	const reps = 20
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, a := range all {
			if _, err := refiner.ParseAndCompile(a.Script); err != nil {
				return err
			}
		}
	}
	k := reps * len(all)
	rep.add("refiner.compile_us", float64(time.Since(t0))/float64(time.Microsecond)/float64(k), "us", k, "auto-backtrack script")
	return nil
}

// driveLiveStore times the live store's write side directly: decode, WAL
// append, fsync, snapshot (a full reseal) at four sizes, checkpoint, reopen.
func driveLiveStore(c *config, in *liveInput, rep *report) error {
	var recs []audit.Record
	t0 := time.Now()
	for _, b := range in.batches {
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			r, err := audit.ParseLine(sc.Text())
			if err != nil {
				return err
			}
			recs = append(recs, r)
		}
	}
	n := float64(len(recs))
	rep.add("audit.parse_ns_per_line", float64(time.Since(t0))/n, "ns", len(recs), "auditd format")

	dir, err := os.MkdirTemp(c.TmpDir, "drive-live-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	live, err := store.OpenLive(dir, simclock.Real{})
	if err != nil {
		return err
	}
	defer func() { live.Close() }()
	var appendT, snapT, snapLast time.Duration
	const chunks = 4
	for k := 0; k < chunks; k++ {
		lo, hi := k*len(recs)/chunks, (k+1)*len(recs)/chunks
		t0 = time.Now()
		for _, r := range recs[lo:hi] {
			if _, err := live.Append(r.Time, r.Subject, r.Object, r.Action, r.Dir, r.Amount); err != nil {
				return err
			}
		}
		appendT += time.Since(t0)
		t0 = time.Now()
		if _, err := live.Snapshot(); err != nil {
			return err
		}
		snapLast = time.Since(t0)
		snapT += snapLast
	}
	t0 = time.Now()
	if err := live.Sync(); err != nil {
		return err
	}
	syncT := time.Since(t0)
	walInfo, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		return err
	}
	t0 = time.Now()
	if err := live.Checkpoint(); err != nil {
		return err
	}
	checkT := time.Since(t0)
	var segBytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && e.Name() != "wal.log" {
			segBytes += info.Size()
		}
	}
	if err := live.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	if live, err = store.OpenLive(dir, simclock.Real{}); err != nil {
		return err
	}
	reopenT := time.Since(t0)
	if got := live.BaseEvents() + live.PendingEvents(); got != len(recs) {
		return fmt.Errorf("reopened live store holds %d events, appended %d", got, len(recs))
	}

	rep.add("store.wal_append_ns_per_event", float64(appendT)/n, "ns", len(recs), "Live.Append")
	rep.add("store.wal_sync_ms", ms(syncT), "ms", 1, "")
	rep.add("store.wal_bytes_per_event", float64(walInfo.Size())/n, "B", len(recs), "")
	rep.add("store.snapshot_total_s", snapT.Seconds(), "s", chunks, "full reseal at 1/4, 2/4, 3/4, 4/4 of the events")
	rep.add("store.snapshot_last_ms", ms(snapLast), "ms", 1, "")
	rep.add("store.checkpoint_s", checkT.Seconds(), "s", 1, "")
	rep.add("store.segment_bytes_per_event", float64(segBytes)/n, "B", len(recs), "")
	rep.add("store.reopen_s", reopenT.Seconds(), "s", 1, "from checkpointed segments")
	return nil
}

// driveServe runs a short serve_static (the subset as sessions) and one
// live pipeline round for the daemon's own numbers.
func driveServe(c *config, st *store.Store, sub []alert, in *liveInput, rep *report) error {
	sess := make([]alert, len(sub))
	for i, a := range sub {
		sess[i] = alert{Event: a.Event, Script: plainScript(c.sz.ServeHops)(a.Event, st)}
	}
	d, err := startDaemon(staticConfig(st, c, nil))
	if err != nil {
		return err
	}
	outs, wall := sessions(d.base, sess, c.Workers, nil)
	reg := d.srv.Telemetry()
	rejected := reg.Counter(telemetry.MetricServeSessionsRejected).Value()
	dropped := reg.Counter(telemetry.MetricServeUpdatesDropped).Value()
	drain, _ := d.stop()
	var submit, wait, exec []float64
	frames := 0
	for _, o := range outs {
		if err := o.check(); err != nil {
			return fmt.Errorf("serve drive: %w", err)
		}
		s := o.Summary
		submit = append(submit, ms(o.Submit))
		wait = append(wait, ms(s.Started.Sub(s.Created)))
		exec = append(exec, ms(s.Finished.Sub(s.Started)))
		frames += o.Frames
	}
	rep.add("serve.submit_ms_p50", median(submit), "ms", len(submit), "POST /api/v1/sessions round trip")
	rep.add("serve.queue_wait_ms_p50", median(wait), "ms", len(wait), "Summary created → started")
	rep.add("serve.exec_ms_p50", median(exec), "ms", len(exec), "Summary started → finished")
	rep.add("serve.sse_frames_total", float64(frames), "count", len(outs), "")
	rep.add("serve.sse_frames_per_s", float64(frames)/wall.Seconds(), "1/s", len(outs), "")
	rep.add("serve.sse_dropped", float64(dropped), "count", 1, "")
	rep.add("serve.rejected", float64(rejected), "count", 1, "")
	rep.add("serve.drain_ms", ms(drain), "ms", 1, "idle daemon")

	lp := &livePipeline{c: c, in: in}
	rs, err := lp.round(nil, false)
	if err != nil {
		return err
	}
	if rs.Failed > 0 {
		return fmt.Errorf("live drive: %d of %d operations failed: %v", rs.Failed, rs.Attempted, rs.Problems)
	}
	detect := rs.Series["detect_now_ms"]
	rep.add("serve.ingest_ack_ms_p50", median(rs.Series["ingest_ack_ms"]), "ms", len(detect), "POST /api/v1/ingest round trip per batch")
	rep.add("serve.detect_now_ms_p50", median(detect), "ms", len(detect), "snapshot (reseal) + incremental scan + admission")
	rep.add("serve.detect_now_ms_last", detect[len(detect)-1], "ms", 1, "at full store size")
	rep.add("live.events_per_s", float64(rs.Events)/rs.Wall.Seconds(), "1/s", rs.Events, "one pipeline round")
	return nil
}
