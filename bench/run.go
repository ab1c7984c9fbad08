package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/memo"
	"aptrace/internal/workload"
)

// setupRepeats is how often one run sets up, so that setup_s is a median.
const setupRepeats = 3

// config is one benchmark run.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Scale    string
	sz       sizes
	Workers  int
	TmpDir   string // scratch inside the checkout
	Digests  map[string]string
	Log      io.Writer
}

// workloadNames in BENCHMARK.json order.
var workloadNames = []string{"triage_flat", "triage_sharded", "triage_heuristic", "serve_static", "live_pipeline"}

// driver is what every workload implements. setup is what setup_s times, and
// it is repeated: generate, export, seal or open, start the daemon. prepare
// runs once after the last setup and draws the alert sample. round runs the
// workload once over all its inputs; with gate set the round also runs its
// correctness gate outside the timed wall.
type driver interface {
	setup(w *world) error
	prepare() error
	round(tr *tracer, gate bool) (roundStats, error)
	close()
}

func newDriver(c *config) (driver, error) {
	switch c.Workload {
	case "triage_flat":
		return &triage{c: c}, nil
	case "triage_sharded":
		return &triage{c: c, sharded: true}, nil
	case "triage_heuristic":
		return &triage{c: c, heuristic: true}, nil
	case "serve_static":
		return &serveStatic{c: c}, nil
	case "live_pipeline":
		return &livePipeline{c: c}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", c.Workload, strings.Join(workloadNames, ", "))
}

// sample is one alert's latencies in a round. Counted says whether it enters
// the latency percentiles (heavy alerts only, where light ones are no-ops).
type sample struct {
	Counted        bool
	RunMs, FirstMs float64
}

// roundStats is one round of a workload.
type roundStats struct {
	Wall      time.Duration
	Done      int // runs that reached a terminal graph
	Samples   []sample
	Attempted int
	Failed    int
	Problems  []string
	// Series are workload-specific per-operation timings (ingest_ack_ms ...).
	Series map[string][]float64
	Events int // events acknowledged (live_pipeline)
}

// world lazily builds and caches the inputs of one seed, so a workload and
// the layer drives that follow it share datasets instead of regenerating.
type world struct {
	c       *config
	flatDS  *workload.Dataset
	shardDS *workload.Dataset
	live    *liveInput
	genS    map[string]float64 // wall seconds of each Generate call
	pools   map[*workload.Dataset]*pool
	// By kind: the alert sample, the injected attack alerts under the kind's
	// script, and the pool run's fingerprints by event ID.
	samples      map[string][]alert
	attackAlerts map[string][]alert
	fingerprints map[string]map[event.EventID]string
}

func newWorld(c *config) *world {
	return &world{c: c, genS: map[string]float64{}, pools: map[*workload.Dataset]*pool{}, samples: map[string][]alert{},
		attackAlerts: map[string][]alert{}, fingerprints: map[string]map[event.EventID]string{}}
}

func (w *world) flat() (*workload.Dataset, error) {
	if w.flatDS == nil {
		ds, s, err := generate(w.c.Seed, w.c.sz, 0)
		if err != nil {
			return nil, err
		}
		w.flatDS, w.genS["flat"] = ds, s
	}
	return w.flatDS, nil
}

func (w *world) sharded() (*workload.Dataset, error) {
	if w.shardDS == nil {
		ds, s, err := generate(w.c.Seed, w.c.sz, w.c.sz.Shards)
		if err != nil {
			return nil, err
		}
		w.shardDS, w.genS["sharded"] = ds, s
	}
	return w.shardDS, nil
}

func (w *world) liveData() (*liveInput, error) {
	if w.live == nil {
		sz := w.c.sz
		sz.Hosts, sz.Days, sz.Density = sz.LiveHosts, sz.LiveDays, sz.LiveDensity
		ds, s, err := generate(w.c.Seed, sz, 0)
		if err != nil {
			return nil, err
		}
		w.genS["live"] = s
		if w.live, err = exportBatches(ds, w.c.sz); err != nil {
			return nil, err
		}
	}
	return w.live, nil
}

// kinds are the alert samples the workloads run: which script backtracks
// the alerts and which size profile the heavy ones are matched to. The
// profiles were read off the pools of seeds 1-8 at full scale: the band of
// sizes that every seed's pool covers densely.
var kinds = map[string]struct {
	script func(sz sizes) scriptFor
	shape  profile
}{
	"triage":    {func(sz sizes) scriptFor { return plainScript(sz.TriageHops) }, profile{0.11, 0.25}},
	"heuristic": {func(sizes) scriptFor { return heuristic }, profile{0.022, 0.054}},
	"serve":     {func(sz sizes) scriptFor { return plainScript(sz.ServeHops) }, profile{0.022, 0.054}},
	"live":      {func(sz sizes) scriptFor { return plainScript(sz.LiveHops) }, profile{0.035, 0.083}},
}

// sample builds the alert sample of a kind ("triage", "heuristic", "serve"
// on the static dataset, "live" on the live one): select a pool, run it once
// under the kind's script to learn the graph sizes, keep the heavy alerts
// that fit the kind's profile. This is input preparation by the benchmark,
// done once per run and outside setup_s; the pool run also warms the process
// up. The sample is the same for the flat and the sharded store.
func (w *world) sample(kind string) ([]alert, error) {
	if s, ok := w.samples[kind]; ok {
		return s, nil
	}
	k, ok := kinds[kind]
	if !ok {
		return nil, fmt.Errorf("unknown alert kind %q", kind)
	}
	sz := w.c.sz
	var ds *workload.Dataset
	var err error
	heavy, light := sz.Heavy, sz.Light
	if kind == "live" {
		var in *liveInput
		if in, err = w.liveData(); err == nil {
			ds = in.ds
		}
		heavy, light = sz.LiveHeavy, sz.LiveLight
	} else {
		ds, err = w.flat()
	}
	if err != nil {
		return nil, err
	}
	p := w.pools[ds]
	if p == nil {
		p = &pool{}
		p.heavies, p.lights, err = selectEvents(ds, w.c.Seed, plainScript(sz.TriageHops), sz.Candidates, sz.Pool, light)
		if err != nil {
			return nil, err
		}
		w.pools[ds] = p
	}
	script := k.script(sz)
	var cache *memo.Cache
	if kind == "heuristic" {
		cache = memo.New(sz.MemoBytes, nil)
	}
	// The triage gates fingerprint the sample and the five injected attack
	// alerts on the flat store; the pool run takes those fingerprints while
	// it is at it.
	run := mix(p.heavies, p.lights, script, ds.Store)
	triage := kind == "triage" || kind == "heuristic"
	if triage {
		for _, atk := range ds.Attacks {
			e, ok := ds.Store.EventByID(atk.AlertID)
			if !ok {
				return nil, fmt.Errorf("attack %s: alert event %d missing", atk.Name, atk.AlertID)
			}
			w.attackAlerts[kind] = append(w.attackAlerts[kind], alert{Event: e, Script: script(e, ds.Store)})
		}
		run = append(run, w.attackAlerts[kind]...)
	}
	outs, _, err := batch(ds.Store, run, w.c.Workers, cache, nil, triage)
	if err != nil {
		return nil, fmt.Errorf("pool run: %w", err)
	}
	size := make(map[event.EventID]int, len(outs))
	w.fingerprints[kind] = make(map[event.EventID]string, len(outs))
	for i, o := range outs {
		size[run[i].Event.ID] = o.Edges
		w.fingerprints[kind][run[i].Event.ID] = o.fingerprint(run[i].Event.ID)
	}
	edges := make([]int, len(p.heavies))
	for i, e := range p.heavies {
		edges[i] = size[e.ID]
	}
	w.samples[kind] = mix(matchProfile(p.heavies, edges, k.shape, heavy, ds.Store.NumEvents()), p.lights, script, ds.Store)
	// What to re-read the profile from when the generator or a script changes.
	sort.Ints(edges)
	share := func(i int) float64 { return float64(edges[i]) / float64(ds.Store.NumEvents()) }
	if n := len(edges); n > 0 {
		fmt.Fprintf(w.c.Log, "%s pool: %d heavy alerts, graph sizes %.3f / %.3f / %.3f of the event count (min / median / max); profile %.3f-%.3f\n",
			kind, n, share(0), share(n/2), share(n-1), k.shape.Lo, k.shape.Hi)
	}
	return w.samples[kind], nil
}

// pool is the candidate sample of one dataset.
type pool struct{ heavies, lights []event.Event }

// value is one reported metric.
type value struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"` // samples behind the value
	Note  string  `json:"-"`
}

// report is the outcome of one run.
type report struct {
	Metrics   []value
	Info      []value // workload-specific numbers, printed but not gated
	Attempted int
	Failed    int
	Problems  []string
}

func (r *report) add(name string, v float64, unit string, n int, note string) {
	r.Metrics = append(r.Metrics, value{Name: name, Value: v, Unit: unit, N: n, Note: note})
}

func (r *report) info(name string, v float64, unit string, n int) {
	r.Info = append(r.Info, value{Name: name, Value: v, Unit: unit, N: n})
}

// checkDigest compares a fingerprint digest with the committed one. Digests
// are committed for seed 1 only; other seeds are covered by the flat/sharded
// comparison.
func (c *config) checkDigest(key, got string) []string {
	fmt.Fprintf(c.Log, "digest %s/%s seed %d: %s\n", c.Scale, key, c.Seed, got)
	if c.Seed != 1 {
		return nil
	}
	want, ok := c.Digests[c.Scale+"/"+key]
	if !ok {
		return []string{fmt.Sprintf("no committed digest for %s/%s (got %s)", c.Scale, key, got)}
	}
	if want != got {
		return []string{fmt.Sprintf("digest %s/%s is %s, committed %s", c.Scale, key, got, want)}
	}
	return nil
}

// pooled gathers the latency samples of all rounds.
func pooled(rounds []roundStats) (runMs, firstMs []float64) {
	for _, r := range rounds {
		for _, s := range r.Samples {
			if s.Counted {
				runMs = append(runMs, s.RunMs)
				firstMs = append(firstMs, s.FirstMs)
			}
		}
	}
	return runMs, firstMs
}

func series(rounds []roundStats, name string) []float64 {
	var out []float64
	for _, r := range rounds {
		out = append(out, r.Series[name]...)
	}
	return out
}

func tally(rep *report, rs roundStats) {
	rep.Attempted += rs.Attempted
	rep.Failed += rs.Failed
	rep.Problems = append(rep.Problems, rs.Problems...)
}

// percentileNote labels a tail percentile that the sample count lowered.
func percentileNote(used, want float64, n int) string {
	if used+1e-9 < want {
		return fmt.Sprintf("p%.1f: only %d samples", 100*used, n)
	}
	return ""
}

// runEndToEnd is the untraced run: set up (several times), warm up and gate,
// then run rounds for c.Seconds and report the end-to-end metrics.
func runEndToEnd(c *config) (*report, error) {
	d, err := newDriver(c)
	if err != nil {
		return nil, err
	}
	defer d.close()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		d.close()
		runtime.GC()
		t0 := time.Now()
		if err := d.setup(newWorld(c)); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := d.prepare(); err != nil {
		return nil, fmt.Errorf("alert sample: %w", err)
	}
	rep := &report{}
	warm, err := d.round(nil, true)
	if err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	tally(rep, warm)

	var rounds []roundStats
	deadline := time.Now().Add(time.Duration(c.Seconds * float64(time.Second)))
	for len(rounds) == 0 || time.Now().Before(deadline) {
		rs, err := d.round(nil, false)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", len(rounds), err)
		}
		tally(rep, rs)
		rounds = append(rounds, rs)
	}

	// Interference from outside the process only ever slows a round down, and
	// on a shared box it comes in bursts of seconds. So the metrics are taken
	// from the faster half of the rounds: throughput is their median, and the
	// latency percentiles pool their samples. (All rounds count for
	// ops_attempted and ops_failed.)
	sort.SliceStable(rounds, func(i, j int) bool {
		return float64(rounds[i].Done)/rounds[i].Wall.Seconds() > float64(rounds[j].Done)/rounds[j].Wall.Seconds()
	})
	all := len(rounds)
	rounds = rounds[:(all+1)/2]
	var perS []float64
	for _, r := range rounds {
		perS = append(perS, float64(r.Done)/r.Wall.Seconds())
	}
	runMs, firstMs := pooled(rounds)
	rep.add("setup_s", median(setups), "s", len(setups), "")
	rep.add("alerts_per_s", median(perS), "1/s", len(perS), fmt.Sprintf("median of the faster half of %d rounds", all))
	rep.add("run_p50_ms", median(runMs), "ms", len(runMs), "")
	p90, used := tailPercentile(runMs, 0.90)
	rep.add("run_p90_ms", p90, "ms", len(runMs), percentileNote(used, 0.90, len(runMs)))
	rep.add("first_update_p50_ms", median(firstMs), "ms", len(firstMs), "")
	// The tail of the first update is scheduling luck on a saturated box (its
	// spread over seeds was 30 %), so it is shown but not gated.
	p90, _ = tailPercentile(firstMs, 0.90)
	rep.info("first_update_p90_ms", p90, "ms", len(firstMs))

	rep.info("rounds", float64(all), "count", all)
	rep.info("alerts_per_round", float64(rounds[0].Done), "count", 1)
	rep.info("heavy_alerts", float64(len(runMs)/len(rounds)), "count", 1)
	if ack := series(rounds, "ingest_ack_ms"); len(ack) > 0 {
		var evPerS []float64
		for _, r := range rounds {
			evPerS = append(evPerS, float64(r.Events)/r.Wall.Seconds())
		}
		rep.info("events_per_s", median(evPerS), "1/s", len(evPerS))
		rep.info("events_per_round", float64(rounds[0].Events), "count", 1)
		rep.info("ingest_ack_p50_ms", median(ack), "ms", len(ack))
		rep.info("detect_now_p50_ms", median(series(rounds, "detect_now_ms")), "ms", len(ack))
	}
	if frames := series(rounds, "sse_frames"); len(frames) > 0 {
		rep.info("sse_frames_per_round", mean(frames)*float64(len(frames))/float64(len(rounds)), "count", len(rounds))
		rep.info("sse_frames_max_per_session", sorted(frames)[len(frames)-1], "count", len(frames))
	}
	// Last, so that it covers the whole run: the process's high-water mark.
	rep.add("peak_rss_mb", peakRSSMB(), "MB", 1, "")
	return rep, nil
}

// peakRSSMB reads VmHWM of this process.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// runTraced is the traced run: untraced and traced rounds alternate for half
// of c.Seconds (their difference is the tracing overhead), then every layer
// is driven in isolation on the seed's inputs.
func runTraced(c *config) (*report, error) {
	d, err := newDriver(c)
	if err != nil {
		return nil, err
	}
	defer d.close()
	w := newWorld(c)
	if err := d.setup(w); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := d.prepare(); err != nil {
		return nil, fmt.Errorf("alert sample: %w", err)
	}
	rep := &report{}
	warm, err := d.round(nil, false)
	if err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	tally(rep, warm)

	// Pairs of one untraced and one traced round, for as long as another pair
	// fits into half of c.Seconds (at least one pair).
	tr := newTracer()
	var plain, traced []float64
	start, budget := time.Now(), time.Duration(c.Seconds/2*float64(time.Second))
	for pair := time.Duration(0); len(plain) == 0 || time.Since(start)+pair <= budget; {
		t0 := time.Now()
		for _, t := range []*tracer{nil, tr} {
			rs, err := d.round(t, false)
			if err != nil {
				return nil, err
			}
			tally(rep, rs)
			if t == nil {
				plain = append(plain, rs.Wall.Seconds())
			} else {
				traced = append(traced, rs.Wall.Seconds())
			}
		}
		pair = time.Since(t0)
	}
	d.close()

	if err := drive(c, w, rep); err != nil {
		return nil, fmt.Errorf("layer drives: %w", err)
	}
	tr.mu.Lock()
	nspans := len(tr.spans)
	tr.mu.Unlock()
	rep.add("trace.overhead_share", median(traced)/median(plain)-1, "share", len(traced), "traced vs untraced round wall")
	rep.add("trace.spans", float64(nspans), "count", 1, "")

	path := tracePath(c)
	if err := tr.writeJSON(path, c.Workload, c.Seed); err != nil {
		return nil, err
	}
	fmt.Fprintf(c.Log, "\nwhere the time goes (%s, %d traced rounds; spans written to %s)\n", c.Workload, len(traced), path)
	writeTable(c.Log, tr.totals())
	return rep, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *report) result() result {
	res := result{Correct: len(r.Problems) == 0 && r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, v := range r.Metrics {
		res.Metrics[v.Name] = v
	}
	return res
}

// print writes the human-readable report and, last, the result line.
func (r *report) print(c *config, out io.Writer) error {
	fmt.Fprintf(c.Log, "\n%s  seed=%d scale=%s seconds=%g trace=%v workers=%d nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		c.Workload, c.Seed, c.Scale, c.Seconds, c.Trace, c.Workers, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	fmt.Fprintf(c.Log, "sizes: %+v\n", c.sz)
	line := func(v value) {
		note := ""
		if v.Note != "" {
			note = "  (" + v.Note + ")"
		}
		fmt.Fprintf(c.Log, "  %-34s %14.4f %-6s n=%d%s\n", v.Name, v.Value, v.Unit, v.N, note)
	}
	for _, v := range r.Metrics {
		line(v)
	}
	for _, v := range r.Info {
		line(v)
	}
	fmt.Fprintf(c.Log, "  ops_attempted=%d ops_failed=%d\n", r.Attempted, r.Failed)
	for i, p := range r.Problems {
		if i == 10 {
			fmt.Fprintf(c.Log, "  ... %d more problems\n", len(r.Problems)-i)
			break
		}
		fmt.Fprintf(c.Log, "  PROBLEM: %s\n", p)
	}
	buf, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", buf)
	return err
}
