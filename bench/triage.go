package main

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"aptrace/internal/core"
	"aptrace/internal/event"
	"aptrace/internal/fleet"
	"aptrace/internal/graph"
	"aptrace/internal/memo"
	"aptrace/internal/refiner"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
	"aptrace/internal/workload"
)

// triage is the batch workload behind triage_flat, triage_sharded and
// triage_heuristic: every alert of the sample backtracked to completion on
// the fleet, `workers` jobs in flight (closed loop).
type triage struct {
	sharded   bool
	heuristic bool

	c      *config
	w      *world
	ds     *workload.Dataset
	alerts []alert
}

func (t *triage) setup(w *world) error {
	t.w = w
	var err error
	if t.sharded {
		t.ds, err = w.sharded()
	} else {
		t.ds, err = w.flat()
	}
	return err
}

func (t *triage) prepare() error {
	kind := "triage"
	if t.heuristic {
		kind = "heuristic"
	}
	var err error
	t.alerts, err = t.w.sample(kind)
	return err
}

func (t *triage) close() {}

// runOut is what one backtracking run reports: latencies for the metrics,
// exact counts for the fingerprint and the core layer metrics.
type runOut struct {
	Run, First time.Duration
	Reason     core.StopReason
	Updates    int
	Windows    int
	Queries    int64
	Rows       int64
	Edges      int
	Nodes      int
	DOT        uint64 // FNV-64a of the rendered graph; 0 unless requested
	graph      *graph.Graph
}

// backtrack runs one alert the way batch triage does: a private view of the
// shared store, the script compiled, a fresh executor, run to completion.
// cache is the shared memo cache (nil = off). submitted is when the alert's
// batch was handed to the fleet: First counts from there, because that is
// when the analyst asked (from the job's own start the first update comes
// after 20 µs, a number that a busy neighbour moves by 30 %).
func backtrack(st *store.Store, a alert, cache *memo.Cache, tr *tracer, withDOT bool, submitted time.Time) (runOut, error) {
	var out runOut
	trace := "alert-" + strconv.FormatUint(uint64(a.Event.ID), 10)
	root := tr.begin(trace, "alert", -1)
	defer tr.end(root)
	t0 := time.Now()

	sp := tr.begin(trace, "view", root)
	v, err := st.View(simclock.Real{})
	tr.end(sp)
	if err != nil {
		return out, err
	}
	sp = tr.begin(trace, "refiner.compile", root)
	plan, err := refiner.ParseAndCompile(a.Script)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	var first time.Time
	runSpan := -1
	sp = tr.begin(trace, "core.new", root)
	x, err := core.New(v, plan, core.Options{Memo: cache, OnUpdate: func(graph.Update) {
		if first.IsZero() {
			first = time.Now()
			tr.instant(trace, "first_update", runSpan)
		}
	}})
	tr.end(sp)
	if err != nil {
		return out, err
	}
	runSpan = tr.begin(trace, "core.run", root)
	res, err := x.RunUnchecked(a.Event)
	tr.end(runSpan)
	if err != nil {
		return out, err
	}
	out.Run = time.Since(t0)
	if !first.IsZero() {
		out.First = first.Sub(submitted)
	}
	s := v.Stats()
	out.Reason, out.Updates, out.Windows = res.Reason, res.Updates, res.Windows
	out.Queries, out.Rows = s.Queries, s.RowsExamined
	out.Edges, out.Nodes = res.Graph.NumEdges(), res.Graph.NumNodes()
	out.graph = res.Graph
	if withDOT {
		h := fnv.New64a()
		if err := graph.WriteDOT(h, res.Graph, v.Object); err != nil {
			return out, err
		}
		out.DOT = h.Sum64()
	}
	return out, nil
}

// fingerprint is everything about a run that acceleration, sharding and
// caching must leave unchanged.
func (o runOut) fingerprint(id event.EventID) string {
	return fmt.Sprintf("event=%d reason=%v updates=%d windows=%d queries=%d rows=%d edges=%d nodes=%d dot=%016x",
		id, o.Reason, o.Updates, o.Windows, o.Queries, o.Rows, o.Edges, o.Nodes, o.DOT)
}

// dotEvery selects the alerts whose rendered graph enters the fingerprint:
// rendering a 100k-edge graph costs as much as building it.
const dotEvery = 4

// batch backtracks every alert on a pool of the given width and returns the
// per-alert outcomes in alert order plus the wall time. withDOT renders and
// hashes the graphs of the alerts whose event ID is a multiple of dotEvery
// (the timed rounds never do).
func batch(st *store.Store, alerts []alert, workers int, cache *memo.Cache, tr *tracer, withDOT bool) ([]runOut, time.Duration, error) {
	pool := fleet.New(workers, nil)
	t0 := time.Now()
	outs, err := fleet.Map(pool, len(alerts), func(i int) (runOut, error) {
		o, err := backtrack(st, alerts[i], cache, tr, withDOT && alerts[i].Event.ID%dotEvery == 0, t0)
		o.graph = nil // only the drives look at graphs; do not pin them here
		return o, err
	})
	return outs, time.Since(t0), err
}

func (t *triage) cache() *memo.Cache {
	if !t.heuristic {
		return nil
	}
	// One cold cache per batch, as `aptrace -batch -memo` starts with.
	return memo.New(t.c.sz.MemoBytes, nil)
}

func (t *triage) round(tr *tracer, gate bool) (roundStats, error) {
	alerts := t.alerts
	if gate && t.sharded {
		// The gate compares this store's fingerprints with the flat store's,
		// attack alerts included; the other triage workloads run on the flat
		// store, whose fingerprints the pool run already took.
		alerts = append(append([]alert(nil), alerts...), t.w.attackAlerts[t.kind()]...)
	}
	outs, wall, err := batch(t.ds.Store, alerts, t.c.Workers, t.cache(), tr, gate && t.sharded)
	rs := roundStats{Wall: wall, Attempted: len(alerts)}
	if err != nil {
		// fleet.Map aborts the batch on the first error: nothing completed.
		rs.Failed = len(alerts)
		rs.Problems = append(rs.Problems, err.Error())
		return rs, nil
	}
	for _, o := range outs {
		rs.Done++
		rs.Samples = append(rs.Samples, sample{Counted: o.Edges >= heavyEdges, RunMs: ms(o.Run), FirstMs: ms(o.First)})
	}
	if gate {
		rs.Problems = append(rs.Problems, t.verify(alerts, outs)...)
	}
	return rs, nil
}

func (t *triage) kind() string {
	if t.heuristic {
		return "heuristic"
	}
	return "triage"
}

// digestOf folds per-alert fingerprints into one value.
func digestOf(fps []string) string {
	h := fnv.New64a()
	for _, fp := range fps {
		h.Write([]byte(fp))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// verify is the triage correctness gate: the sharded store reports exactly
// what the flat one does, the fingerprints' digest matches the committed one
// for seed 1, and every attack's final ground-truth script reaches its root
// cause. The flat fingerprints come from the pool run (see world.sample).
func (t *triage) verify(alerts []alert, outs []runOut) []string {
	var problems []string
	ref := t.w.fingerprints[t.kind()]
	var fps []string
	for _, a := range append(append([]alert(nil), t.alerts...), t.w.attackAlerts[t.kind()]...) {
		fps = append(fps, ref[a.Event.ID])
	}
	if t.sharded {
		for i, o := range outs {
			if got, want := o.fingerprint(alerts[i].Event.ID), ref[alerts[i].Event.ID]; got != want {
				problems = append(problems, fmt.Sprintf("sharded differs from flat:\n  flat:    %s\n  sharded: %s", want, got))
				break
			}
		}
	}
	problems = append(problems, t.c.checkDigest(t.kind(), digestOf(fps))...)
	problems = append(problems, rootCauses(t.ds)...)
	return problems
}

// rootCauses runs each attack's final ground-truth script from its alert and
// checks that the penetration point lands in the graph.
func rootCauses(ds *workload.Dataset) []string {
	var problems []string
	for _, atk := range ds.Attacks {
		e, ok := ds.Store.EventByID(atk.AlertID)
		if !ok {
			problems = append(problems, fmt.Sprintf("attack %s: alert event missing", atk.Name))
			continue
		}
		o, err := backtrack(ds.Store, alert{Event: e, Script: atk.Scripts[len(atk.Scripts)-1]}, nil, nil, false, time.Now())
		if err != nil {
			problems = append(problems, fmt.Sprintf("attack %s: %v", atk.Name, err))
			continue
		}
		found := false
		for _, n := range o.graph.Nodes() {
			if ds.Store.Object(n.ID).Key() == atk.RootCause {
				found = true
				break
			}
		}
		if !found {
			problems = append(problems, fmt.Sprintf("attack %s: root cause not reached (%d edges)", atk.Name, o.Edges))
		}
	}
	return problems
}
