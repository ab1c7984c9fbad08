package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"runtime"
	"time"

	"aptrace/internal/core"
	"aptrace/internal/event"
	"aptrace/internal/graph"
	"aptrace/internal/refiner"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
	"aptrace/internal/workload"
)

// The shard experiment measures the two hot paths the host×time shard
// router parallelizes — sealing and batch backtracking — at 1, 2, 4, and 8
// shards over the identical dataset, and enforces the router's load-bearing
// invariant: per-alert outputs (stop reason, update/window counts, simulated
// elapsed, charged stats, DOT hash) must be byte-identical across every
// shard count. A divergence fails the experiment; a slow host only makes
// the numbers smaller.
//
// Wall-clock speedups are host properties: on a multi-core runner the
// scatter and the per-shard seals genuinely overlap and the wall columns
// show the speedup directly. On a saturated or single-core host the router
// runs its scatter serially but times every per-shard task, so the
// experiment also reports the critical-path wall — measured wall minus the
// measured time a concurrent scatter would have shed (sum minus max of the
// per-shard tasks; zero when tasks actually overlapped). The critical-path
// column is what the same binary observes once cores are available.

// shardConfigs are the shard counts the experiment sweeps, first entry the
// flat baseline every other config is compared (and identity-checked)
// against.
var shardConfigs = []int{1, 2, 4, 8}

// ShardConfigResult is one shard count's measurements.
type ShardConfigResult struct {
	Shards             int     `json:"shards"`
	Events             int     `json:"events"`
	SealWallSec        float64 `json:"seal_wall_sec"`
	SealCriticalSec    float64 `json:"seal_critical_sec"`
	BatchWallSec       float64 `json:"batch_wall_sec"`
	BatchCriticalSec   float64 `json:"batch_critical_sec"`
	Scatters           int64   `json:"scatters"`
	ScatterBusySec     float64 `json:"scatter_busy_sec"`
	ScatterSavableSec  float64 `json:"scatter_savable_sec"`
	SealSavableSec     float64 `json:"seal_savable_sec"`
	SealRanConcurrent  bool    `json:"seal_ran_concurrent"`
	NonEmptyShards     int     `json:"non_empty_shards"`
	MaxShardShareOfLog float64 `json:"max_shard_share_of_log"`
}

// ShardResult is the structured result behind BENCH_shard.json.
type ShardResult struct {
	Samples    int     `json:"samples"`
	Iterations int     `json:"iterations"`
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Windows    int     `json:"windows"`
	Hosts      int     `json:"hosts"`
	Days       int     `json:"days"`
	Density    float64 `json:"density"`

	Configs []ShardConfigResult `json:"configs"`

	// Headline speedups at 4 shards relative to the flat baseline, in both
	// accountings (see the package comment above).
	SealSpeedupWall4      float64 `json:"seal_speedup_wall_4"`
	SealSpeedupCritical4  float64 `json:"seal_speedup_critical_4"`
	BatchSpeedupWall4     float64 `json:"batch_speedup_wall_4"`
	BatchSpeedupCritical4 float64 `json:"batch_speedup_critical_4"`

	// Identical records that every per-alert fingerprint (and the start
	// scan's match list) was byte-identical across all shard counts.
	Identical bool `json:"identical"`
}

// shardPass runs the batch-triage shape serially over the sampled alerts:
// one full-range CollectMatches start scan (the scatter the router
// parallelizes whole) followed by one attr-heavy backtracking session per
// alert on a private view. It returns one fingerprint per alert plus one
// for the start scan, in the exact format the memo experiment pins.
func shardPass(st *store.Store, alerts []event.Event) ([]string, error) {
	fps := make([]string, 0, len(alerts)+1)

	scanView, err := st.View(simclock.NewSimulated(time.Time{}))
	if err != nil {
		return nil, err
	}
	minT, maxT, _ := scanView.TimeRange()
	matches, err := scanView.CollectMatches(minT, maxT+1, func() func(event.Event) (bool, error) {
		return func(e event.Event) (bool, error) {
			return e.Action == event.ActSend && e.Amount >= 1024, nil
		}
	})
	if err != nil {
		return nil, err
	}
	scanView.FlushQueryProfile() // no executor runs on this view to do it
	mh := fnv.New64a()
	for _, m := range matches {
		fmt.Fprintf(mh, "%d,", m.ID)
	}
	ss := scanView.Stats()
	fps = append(fps, fmt.Sprintf("scan matches=%d queries=%d rows=%d buckets=%d ids=%016x",
		len(matches), ss.Queries, ss.RowsExamined, ss.BucketsPruned, mh.Sum64()))

	for _, ev := range alerts {
		clk := simclock.NewSimulated(time.Time{})
		v, err := st.View(clk)
		if err != nil {
			return nil, err
		}
		plan, err := refiner.ParseAndCompile(memoScript)
		if err != nil {
			return nil, err
		}
		x, err := core.New(v, plan, core.Options{Windows: 1})
		if err != nil {
			return nil, err
		}
		res, err := x.RunUnchecked(ev)
		if err != nil {
			return nil, err
		}
		h := fnv.New64a()
		if err := graph.WriteDOT(h, res.Graph, v.Object); err != nil {
			return nil, err
		}
		s := v.Stats()
		fps = append(fps, fmt.Sprintf("reason=%v updates=%d windows=%d elapsed=%v queries=%d rows=%d buckets=%d dot=%016x",
			res.Reason, res.Updates, res.Windows, res.Elapsed,
			s.Queries, s.RowsExamined, s.BucketsPruned, h.Sum64()))
	}
	return fps, nil
}

// RunShard sweeps the shard counts. Every configuration regenerates the
// dataset from the same seed through the same AddEvent stream — only the
// routing differs — with per-shard seal workers pinned to 1 so shard count
// is the sole parallelism axis, then seals (timed) and runs the batch pass
// (timed, best of cfg.BenchIters).
func RunShard(env *Env, cfg Config, w io.Writer) (*ShardResult, error) {
	iters := cfg.BenchIters
	if iters < 1 {
		iters = 1
	}
	wcfg := env.Dataset.Config
	res := &ShardResult{
		Samples:    cfg.Samples,
		Iterations: iters,
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Windows:    1,
		Hosts:      wcfg.Hosts,
		Days:       wcfg.Days,
		Density:    wcfg.Density,
	}

	header(w, "Shard: host×time partitioning — parallel seal and scatter-gather backtracking (real CPU)")
	fmt.Fprintf(w, "%d alerts per config, best of %d repetition(s), %d cores (GOMAXPROCS %d)\n\n",
		cfg.Samples, iters, res.Cores, res.GOMAXPROCS)
	fmt.Fprintf(w, "%-8s %12s %14s %12s %14s %10s\n",
		"shards", "seal wall", "seal critical", "batch wall", "batch critical", "scatters")

	var baseline []string
	for _, n := range shardConfigs {
		gcfg := wcfg
		gcfg.Shards = n
		gcfg.SealWorkers = 1
		ds, err := workload.Generate(gcfg, simclock.NewSimulated(time.Time{}))
		if err != nil {
			return nil, fmt.Errorf("shard: generate %d-shard dataset: %w", n, err)
		}
		st := ds.Store

		sealWall := ds.SealWall
		_, _, sealSavableNs, sealConc := st.SealShardStats()
		sealCritical := sealWall - time.Duration(sealSavableNs)

		// Seeding mirrors sampleEvents: the regenerated stores are
		// event-identical, so every config draws the same alerts (the
		// identity check proves it).
		alerts := st.RandomEvents(cfg.Samples, rand.New(rand.NewSource(cfg.Seed)))
		var best time.Duration
		var fps []string
		var scatters, busyNs, savableNs int64
		for it := 0; it < iters; it++ {
			sc0, bu0, sv0 := st.ShardScatterStats()
			t0 := time.Now()
			got, err := shardPass(st, alerts)
			wall := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("shard: %d-shard batch pass: %w", n, err)
			}
			sc1, bu1, sv1 := st.ShardScatterStats()
			if fps == nil || wall < best {
				best = wall
				scatters, busyNs, savableNs = sc1-sc0, bu1-bu0, sv1-sv0
			}
			fps = got
		}
		batchCritical := best - time.Duration(savableNs)

		if n == shardConfigs[0] {
			baseline = fps
		} else {
			if len(fps) != len(baseline) {
				return nil, fmt.Errorf("shard: %d-shard pass returned %d fingerprints, flat returned %d",
					n, len(fps), len(baseline))
			}
			for i := range fps {
				if fps[i] != baseline[i] {
					return nil, fmt.Errorf("shard: output diverged at %d shards (sample %d):\n  flat:    %s\n  sharded: %s",
						n, i, baseline[i], fps[i])
				}
			}
		}

		nonEmpty, maxShare := 0, 0.0
		for _, info := range st.ShardInfos() {
			if info.Events > 0 {
				nonEmpty++
			}
			if share := float64(info.Events) / float64(st.NumEvents()); share > maxShare {
				maxShare = share
			}
		}
		if n == 1 {
			nonEmpty, maxShare = 1, 1.0
		}

		cr := ShardConfigResult{
			Shards:             n,
			Events:             st.NumEvents(),
			SealWallSec:        sealWall.Seconds(),
			SealCriticalSec:    sealCritical.Seconds(),
			BatchWallSec:       best.Seconds(),
			BatchCriticalSec:   batchCritical.Seconds(),
			Scatters:           scatters,
			ScatterBusySec:     (time.Duration(busyNs)).Seconds(),
			ScatterSavableSec:  (time.Duration(savableNs)).Seconds(),
			SealSavableSec:     (time.Duration(sealSavableNs)).Seconds(),
			SealRanConcurrent:  sealConc,
			NonEmptyShards:     nonEmpty,
			MaxShardShareOfLog: maxShare,
		}
		res.Configs = append(res.Configs, cr)
		fmt.Fprintf(w, "%-8d %12s %14s %12s %14s %10d\n",
			n, fmtDur(sealWall), fmtDur(sealCritical), fmtDur(best), fmtDur(batchCritical), scatters)
	}
	res.Identical = true

	flat := res.Configs[0]
	for _, c := range res.Configs {
		if c.Shards != 4 {
			continue
		}
		if c.SealWallSec > 0 {
			res.SealSpeedupWall4 = flat.SealWallSec / c.SealWallSec
		}
		if c.SealCriticalSec > 0 {
			res.SealSpeedupCritical4 = flat.SealWallSec / c.SealCriticalSec
		}
		if c.BatchWallSec > 0 {
			res.BatchSpeedupWall4 = flat.BatchWallSec / c.BatchWallSec
		}
		if c.BatchCriticalSec > 0 {
			res.BatchSpeedupCritical4 = flat.BatchWallSec / c.BatchCriticalSec
		}
	}

	fmt.Fprintf(w, "\nat 4 shards vs flat: seal %.2fx wall / %.2fx critical-path, batch %.2fx wall / %.2fx critical-path\n",
		res.SealSpeedupWall4, res.SealSpeedupCritical4, res.BatchSpeedupWall4, res.BatchSpeedupCritical4)
	fmt.Fprintf(w, "outputs byte-identical across all shard counts: %v (%d fingerprints per config)\n",
		res.Identical, len(baseline))
	return res, nil
}
