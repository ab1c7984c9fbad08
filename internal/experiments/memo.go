package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"aptrace/internal/core"
	"aptrace/internal/event"
	"aptrace/internal/explain"
	"aptrace/internal/graph"
	"aptrace/internal/memo"
	"aptrace/internal/refiner"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
)

// memoScript is the triage plan the memoization experiment batches over the
// sampled alerts. Two properties make it the shape where the memo pays:
//
//   - No time budget, only a hop budget. A simulated time budget truncates
//     charged work identically with the cache on and off, so it also caps
//     the real CPU a hit can save; bounding by hops instead leaves the full
//     closure walk on the table for the cache to elide.
//   - Attribute filters (write-through, file access times) that force a
//     per-candidate posting-list walk on every refinement pass. Across 200
//     alerts the same hot objects recur, so the uncached fan-out repeats
//     those walks quadratically while the cached one does each once. The
//     access-time bounds are deliberately vacuous (every row passes) and
//     stacked three deep: each clause is an independent FileTimes
//     evaluation, modeling a production rule set that consults file times
//     from several predicates, without perturbing which rows survive.
const memoScript = `backward proc p[exename = "*"] -> *
where file.last_access_time >= "1970-01-01 00:00:00" and file.last_access_time < "2100-01-01 00:00:00" and file.last_access_time != "2100-01-02 00:00:00" and proc.dst.isWriteThrough != true and hop <= 6`

// MemoResult is the structured result behind BENCH_memo.json. Wall-clock
// fields are host-machine properties (best of Iterations repetitions); the
// simulated-clock tables elsewhere are unaffected by the cache either way —
// Identical records that the experiment proved it on this run.
type MemoResult struct {
	Samples     int     `json:"samples"`
	Workers     int     `json:"workers"`
	Iterations  int     `json:"iterations"`
	UncachedSec float64 `json:"uncached_wall_sec"`
	CachedSec   float64 `json:"cached_wall_sec"`
	Speedup     float64 `json:"speedup"`
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	HitRate     float64 `json:"hit_rate"`
	BytesHeld   int64   `json:"bytes_held"`
	Evictions   int64   `json:"evictions"`
	Identical   bool    `json:"identical"`
}

// memoPass fans the sampled alerts across the pool once, every executor
// sharing one memo cache (nil = memo off), and returns one fingerprint per
// sample covering everything the charged-cost invariant protects: the
// termination reason, update/window counts, simulated elapsed time, the
// store's charged Stats, and an FNV-64a hash of the rendered DOT graph.
func memoPass(env *Env, cfg Config, events []event.Event, name string, cache *memo.Cache) ([]string, error) {
	return fanOut(env, cfg, events, name,
		func(st *store.Store, clk *simclock.Simulated, ev event.Event, lane *explain.Recorder) (string, error) {
			plan, err := refiner.ParseAndCompile(memoScript)
			if err != nil {
				return "", err
			}
			o := cfg.laneOptions(lane)
			o.Memo = cache
			x, err := core.New(st, plan, o)
			if err != nil {
				return "", err
			}
			res, err := x.RunUnchecked(ev)
			if err != nil {
				return "", err
			}
			h := fnv.New64a()
			if err := graph.WriteDOT(h, res.Graph, st.Object); err != nil {
				return "", err
			}
			s := st.Stats()
			return fmt.Sprintf("reason=%v updates=%d windows=%d elapsed=%v queries=%d rows=%d buckets=%d dot=%016x",
				res.Reason, res.Updates, res.Windows, res.Elapsed,
				s.Queries, s.RowsExamined, s.BucketsPruned, h.Sum64()), nil
		})
}

// RunMemo measures the wall-clock effect of the shared backward-closure
// memo cache on batch triage: the same alert sample fanned across the pool
// with the cache off, then with one cold shared cache per repetition, each
// mode keeping its best time. Every sample's fingerprint must match between
// the modes — the cache may only change how fast the batch runs, never what
// it reports — so a divergence fails the experiment rather than shipping a
// tainted speedup.
func RunMemo(env *Env, cfg Config, w io.Writer) (*MemoResult, error) {
	if cfg.Parallel < 2 {
		// The experiment models `aptrace -batch -parallel 4`; a serial pool
		// would understate the contention the shared cache absorbs.
		cfg.Parallel = 4
	}
	iters := cfg.BenchIters
	if iters < 1 {
		iters = 1
	}
	events := env.sampleEvents(cfg.Samples, cfg.Seed)
	res := &MemoResult{Samples: len(events), Workers: cfg.Parallel, Iterations: iters}

	header(w, "Memo: cross-alert backward-closure memoization (real CPU)")
	fmt.Fprintf(w, "%d alerts, %d workers, best of %d repetition(s) per mode\n\n",
		len(events), cfg.Parallel, iters)

	measure := func(name string, cache func() *memo.Cache) (time.Duration, []string, *memo.Cache, error) {
		var best time.Duration
		var fps []string
		var last *memo.Cache
		for i := 0; i < iters; i++ {
			last = cache()
			t0 := time.Now()
			got, err := memoPass(env, cfg, events, name, last)
			wall := time.Since(t0)
			if err != nil {
				return 0, nil, nil, err
			}
			if fps == nil || wall < best {
				best = wall
			}
			fps = got
		}
		return best, fps, last, nil
	}

	uncachedWall, base, _, err := measure("memo/uncached", func() *memo.Cache { return nil })
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%-20s %10.2fs wall\n", "memo off", uncachedWall.Seconds())

	// A fresh cache per repetition keeps every cached measurement a cold
	// start, the same workload `aptrace -batch -memo` faces.
	cachedWall, cached, cache, err := measure("memo/cached", func() *memo.Cache { return memo.New(0, cfg.Telemetry) })
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%-20s %10.2fs wall\n", "memo on", cachedWall.Seconds())

	for i := range base {
		if cached[i] != base[i] {
			return nil, fmt.Errorf("memo: sample %d (event %d) diverged with the cache on:\n  off: %s\n   on: %s",
				i, events[i].ID, base[i], cached[i])
		}
	}
	res.Identical = true

	cs := cache.Stats()
	res.UncachedSec = uncachedWall.Seconds()
	res.CachedSec = cachedWall.Seconds()
	if cachedWall > 0 {
		res.Speedup = float64(uncachedWall) / float64(cachedWall)
	}
	res.Hits, res.Misses, res.HitRate = cs.Hits, cs.Misses, cs.HitRate()
	res.BytesHeld, res.Evictions = cs.Bytes, cs.Evictions

	fmt.Fprintf(w, "\nspeedup: %.2fx   hit rate: %.1f%% (%d hits, %d misses)   resident: %d bytes, %d evictions\n",
		res.Speedup, 100*res.HitRate, res.Hits, res.Misses, res.BytesHeld, res.Evictions)
	fmt.Fprintf(w, "per-alert output byte-identical cache on vs off: %v (%d/%d samples)\n",
		res.Identical, len(base), len(base))
	return res, nil
}
