package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"aptrace/internal/core"
	"aptrace/internal/event"
	"aptrace/internal/graph"
	"aptrace/internal/refiner"
	"aptrace/internal/serve"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
	"aptrace/internal/workload"
)

// sizes are the frozen input sizes of one scale. Calibrated once on a 2-core
// box so that one round of each workload takes 1-3 s (see README.md).
type sizes struct {
	// Static dataset (triage_*, serve_static).
	Hosts   int
	Days    int
	Density float64
	Shards  int // triage_sharded
	// Alert sample: of Candidates seeded random events, a pool of Pool heavy
	// ones is run once to learn their graph sizes, and the Heavy of them that
	// best fit the workload's size profile are kept, with Light light ones
	// (see selectEvents and matchProfile).
	Candidates int
	Pool       int
	Heavy      int
	Light      int
	TriageHops int
	// serve_static.
	ServeHops        int
	SubscriberBuffer int
	// live_pipeline dataset and batching.
	LiveHosts   int
	LiveDays    int
	LiveDensity float64
	LiveBatch   int // lines per ingest batch (extended to the end of the second)
	LiveHeavy   int // events the benchmark-owned rule fires on, chosen like
	LiveLight   int // the static sample
	LiveHops    int
	MemoBytes   int64
	// Layer drives (traced run): caps that keep the drive suite short.
	DriveAlerts  int // heavy alerts (plus as many light) the core/fleet drives run
	DriveQueries int // store query-set size
}

var scales = map[string]sizes{
	"full": {
		Hosts: 12, Days: 4, Density: 3, Shards: 8,
		Candidates: 1000, Pool: 48, Heavy: 24, Light: 48, TriageHops: 10,
		ServeHops: 6, SubscriberBuffer: 1 << 15,
		LiveHosts: 6, LiveDays: 6, LiveDensity: 3, LiveBatch: 5000, LiveHeavy: 32, LiveLight: 64, LiveHops: 6,
		MemoBytes:   64 << 20,
		DriveAlerts: 8, DriveQueries: 20000,
	},
	"smoke": {
		Hosts: 2, Days: 1, Density: 1, Shards: 4,
		Candidates: 200, Pool: 10, Heavy: 6, Light: 6, TriageHops: 10,
		ServeHops: 6, SubscriberBuffer: 1 << 14,
		LiveHosts: 2, LiveDays: 1, LiveDensity: 0.5, LiveBatch: 500, LiveHeavy: 4, LiveLight: 12, LiveHops: 6,
		MemoBytes:   64 << 20,
		DriveAlerts: 2, DriveQueries: 500,
	},
}

// heavyEdges is the final graph size from which an alert counts as heavy:
// most random starting events backtrack to a handful of edges in well under
// a millisecond, so latency percentiles are taken over heavy alerts only.
const heavyEdges = 100

// heuristicScript is the analyst-style plan of triage_heuristic: attribute
// filters that force a posting-list walk per candidate (write-through, three
// file access-time clauses) under a hop budget, the shape the shared memo
// cache exists for (same as the memo experiment's script).
const heuristicScript = `backward proc p[exename = "*"] -> *
where file.last_access_time >= "1970-01-01 00:00:00" and file.last_access_time < "2100-01-01 00:00:00" and file.last_access_time != "2100-01-02 00:00:00" and proc.dst.isWriteThrough != true and hop <= 6`

// alert is one starting event with the script that backtracks it.
type alert struct {
	Event  event.Event
	Script string
	Heavy  bool // selected as a heavy alert (see selectEvents)
}

// scriptFor builds an alert's BDL script from the event and the store.
type scriptFor func(e event.Event, st *store.Store) string

func plainScript(hops int) scriptFor {
	return func(e event.Event, st *store.Store) string { return serve.ScriptForEvent(e, st, hops, 0) }
}

func heuristic(event.Event, *store.Store) string { return heuristicScript }

// generate builds the static dataset of a seed on the real clock.
func generate(seed int64, sz sizes, shards int) (*workload.Dataset, float64, error) {
	t0 := time.Now()
	ds, err := workload.Generate(workload.Config{
		Seed: seed, Hosts: sz.Hosts, Days: sz.Days, Density: sz.Density, Shards: shards,
	}, simclock.Real{})
	if err != nil {
		return nil, 0, fmt.Errorf("generate dataset: %w", err)
	}
	return ds, time.Since(t0).Seconds(), nil
}

// reaches backtracks e under script until the graph holds limit edges and
// stops there, so the probe costs at most limit updates. It reports whether
// the graph got that far.
func reaches(st *store.Store, e event.Event, script string, limit int) (bool, error) {
	v, err := st.View(nil)
	if err != nil {
		return false, err
	}
	plan, err := refiner.ParseAndCompile(script)
	if err != nil {
		return false, err
	}
	var x *core.Executor
	n := 0
	x, err = core.New(v, plan, core.Options{OnUpdate: func(graph.Update) {
		if n++; n >= limit {
			x.Stop()
		}
	}})
	if err != nil {
		return false, err
	}
	res, err := x.RunUnchecked(e)
	if err != nil {
		return false, err
	}
	return res.Graph.NumEdges() >= limit, nil
}

// giantShare separates the two kinds of heavy alert. Backtracking a
// workstation process either stays in that process's own history (under 1 %
// of the events recorded before the alert) or joins the component that links
// the hosts through the servers (close to 30 % of them, at any time and on
// any seed); a probe that stops at 5 % tells them apart at a sixth of the
// cost of the full run.
const giantShare = 0.05

// firstGiantAt is the earliest point of the history, as a share of its
// length, at which a heavy alert is placed.
const firstGiantAt = 0.4

// selectEvents draws the alert sample of a seed from `candidates` random
// starting events (the paper's random-start methodology): `light` events
// whose graphs stay under heavyEdges edges, and `heavy` events whose graphs
// join the cross-host component.
//
// A plain random sample makes throughput a property of the seed: how many
// heavy alerts it holds, how late they fall (the component grows linearly
// with the history before the alert) and what they start from (a server
// object reaches the whole component in six hops, a workstation process only
// a fifth of it) moved alerts/s by +-20 % between seeds. So the heavy alerts
// are workstation-process events placed at evenly spaced points of the
// history: for each target the nearest candidate that the probe confirms,
// ordered oldest first. The injected
// attack alerts are not part of the timed sample (their cost differs by
// seed); the correctness gate runs them.
func selectEvents(ds *workload.Dataset, seed int64, script scriptFor, candidates, heavy, light int) (heavies, lights []event.Event, err error) {
	st := ds.Store
	rng := rand.New(rand.NewSource(seed))
	var procs []event.Event // workstation-process candidates, by time
	for _, e := range st.RandomEvents(candidates, rng) {
		o := st.Object(e.Dst())
		if o.Type == event.ObjProcess && strings.HasPrefix(o.Host, "desktop-") {
			procs = append(procs, e)
			continue
		}
		if len(lights) < light {
			big, err := reaches(st, e, script(e, st), heavyEdges)
			if err != nil {
				return nil, nil, fmt.Errorf("classify event %d: %w", e.ID, err)
			}
			if !big {
				lights = append(lights, e)
			}
		}
	}
	sort.SliceStable(procs, func(i, j int) bool { return procs[i].Time < procs[j].Time })
	// Candidates are uniform over events, so a candidate's rank among the
	// time-ordered workstation-process candidates is the share of the history
	// recorded before it (activity comes in daily bursts; ranks, unlike
	// times, have no empty stretches). Targets are evenly spaced ranks; from
	// each the search walks outwards until the probe confirms a candidate.
	used := make([]bool, len(procs))
	for k := 0; k < heavy && len(procs) > 0; k++ {
		at := firstGiantAt + (float64(k)+0.5)/float64(heavy)*(1-firstGiantAt)
		target := int(at * float64(len(procs)))
		for step := 0; step < 2*len(procs); step++ {
			// target, target+1, target-1, target+2, ...
			i := target - (step+1)/2
			if step%2 == 1 {
				i = target + (step+1)/2
			}
			if i < 0 || i >= len(procs) || used[i] {
				continue
			}
			used[i] = true
			e := procs[i]
			limit := int(giantShare * float64(i) / float64(len(procs)) * float64(st.NumEvents()))
			if limit < heavyEdges {
				limit = heavyEdges
			}
			ok, err := reaches(st, e, script(e, st), limit)
			if err != nil {
				return nil, nil, fmt.Errorf("probe event %d: %w", e.ID, err)
			}
			if ok {
				heavies = append(heavies, e)
				break
			}
		}
	}
	return heavies, lights, nil
}

// profile is the frozen shape of a workload's heavy alerts: final graph
// sizes, as shares of the dataset's event count, evenly spaced from Lo to Hi.
// Matching every seed's sample to the same sizes is what makes a seed's
// throughput and latencies comparable with another's: the pool's own sizes
// differ by seed (which processes the sample caught, how far their histories
// reach within the hop budget).
type profile struct{ Lo, Hi float64 }

// matchProfile keeps n of the pool, for each target size the unused pool
// member nearest to it, largest target first.
func matchProfile(pool []event.Event, edges []int, p profile, n, events int) []event.Event {
	if n > len(pool) {
		n = len(pool)
	}
	used := make([]bool, len(pool))
	var out []event.Event
	for k := n - 1; k >= 0; k-- {
		target := (p.Lo + (float64(k)+0.5)/float64(n)*(p.Hi-p.Lo)) * float64(events)
		best := -1
		for i := range pool {
			if used[i] {
				continue
			}
			if best < 0 || math.Abs(float64(edges[i])-target) < math.Abs(float64(edges[best])-target) {
				best = i
			}
		}
		used[best] = true
		out = append(out, pool[best])
	}
	return out
}

// mix orders a batch: heavy alerts (given largest first) with the light ones
// spread evenly between them, so that the batch does not end on one worker
// finishing the largest graph alone.
func mix(heavies, lights []event.Event, script scriptFor, st *store.Store) []alert {
	out := make([]alert, 0, len(heavies)+len(lights))
	h, l := 0, 0
	for h < len(heavies) || l < len(lights) {
		if l >= len(lights) || (h < len(heavies) && h*len(lights) <= l*len(heavies)) {
			out = append(out, alert{Event: heavies[h], Script: script(heavies[h], st), Heavy: true})
			h++
		} else {
			out = append(out, alert{Event: lights[l], Script: script(lights[l], st)})
			l++
		}
	}
	return out
}
