package qprof

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// KindStat is one query kind's aggregate in a snapshot.
type KindStat struct {
	Kind    string `json:"kind"`
	Queries int64  `json:"queries"`
	Rows    int64  `json:"rows"`
	BusyNs  int64  `json:"busy_ns,omitempty"`
	MergeNs int64  `json:"merge_ns,omitempty"`
}

// Snapshot is a point-in-time render of the profiler: whole-run aggregates,
// skew quantiles and per-kind stats. It is the profile /debug/shards serves.
type Snapshot struct {
	ShardCount   int     `json:"shard_count"`
	EpochSeconds int64   `json:"epoch_seconds"`
	Queries      int64   `json:"queries"`
	Scattered    int64   `json:"scattered_queries"`
	Rows         int64   `json:"rows"`
	MeanFanout   float64 `json:"mean_fanout"`
	BusyNs       int64   `json:"busy_ns"`
	SavableNs    int64   `json:"savable_ns"`
	MergeNs      int64   `json:"merge_ns"`
	SkewP50      float64 `json:"skew_p50"`
	SkewP90      float64 `json:"skew_p90"`
	SkewMax      float64 `json:"skew_max"`

	Kinds []KindStat `json:"kinds,omitempty"`
}

// Snapshot renders the profiler's current state. Safe on nil (zero snapshot).
func (p *Profiler) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	sn := Snapshot{
		ShardCount:   p.shardCount,
		EpochSeconds: p.epochSeconds,
		Queries:      p.queries,
		Scattered:    p.scattered,
		Rows:         p.rows,
		BusyNs:       p.busyNs,
		SavableNs:    p.savableNs,
		MergeNs:      p.mergeNs,
	}
	if p.queries > 0 {
		sn.MeanFanout = float64(p.fanoutSum) / float64(p.queries)
	}
	skews := p.skewSlice()
	sn.SkewP50 = quantile(skews, 0.5)
	sn.SkewP90 = quantile(skews, 0.9)
	if len(skews) > 0 {
		sn.SkewMax = skews[len(skews)-1]
	}
	for k := Kind(0); k < numKinds; k++ {
		a := p.byKind[k]
		if a.queries == 0 {
			continue
		}
		sn.Kinds = append(sn.Kinds, KindStat{
			Kind: k.String(), Queries: a.queries, Rows: a.rows,
			BusyNs: a.busyNs, MergeNs: a.mergeNs,
		})
	}
	return sn
}

// Handler serves the snapshot as indented JSON — mounted at /debug/shards by
// apserve and by any CLI's -metrics mux.
func (p *Profiler) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(p.Snapshot()) //nolint:errcheck // best-effort debug endpoint
	})
}

// WriteSummary prints the compact end-of-run summary line aptrace -qprof
// emits on stderr.
func (p *Profiler) WriteSummary(w io.Writer) {
	if p == nil {
		return
	}
	sn := p.Snapshot()
	fmt.Fprintf(w, "qprof: %d queries (%d scattered), %d rows, mean fan-out %.2f, busy %s, savable %s, merge %s, skew p50/p90/max %.2f/%.2f/%.2f\n",
		sn.Queries, sn.Scattered, sn.Rows, sn.MeanFanout,
		fmtNs(sn.BusyNs), fmtNs(sn.SavableNs), fmtNs(sn.MergeNs),
		sn.SkewP50, sn.SkewP90, sn.SkewMax)
}

// WriteBreakdown prints the per-query breakdown tables apquery -profile
// shows: whole-run aggregates, per-kind totals, and the most recent samples.
func (p *Profiler) WriteBreakdown(w io.Writer) {
	if p == nil {
		fmt.Fprintln(w, "qprof: no profiler attached")
		return
	}
	sn := p.Snapshot()
	fmt.Fprintf(w, "query profile: %d queries, %d scattered, %d rows, mean fan-out %.2f\n",
		sn.Queries, sn.Scattered, sn.Rows, sn.MeanFanout)
	fmt.Fprintf(w, "  busy %s  savable %s  merge %s  skew p50/p90/max %.2f/%.2f/%.2f\n",
		fmtNs(sn.BusyNs), fmtNs(sn.SavableNs), fmtNs(sn.MergeNs),
		sn.SkewP50, sn.SkewP90, sn.SkewMax)
	if len(sn.Kinds) > 0 {
		fmt.Fprintf(w, "\n%-16s %10s %12s %12s %12s\n", "kind", "queries", "rows", "busy", "merge")
		for _, k := range sn.Kinds {
			fmt.Fprintf(w, "%-16s %10d %12d %12s %12s\n",
				k.Kind, k.Queries, k.Rows, fmtNs(k.BusyNs), fmtNs(k.MergeNs))
		}
	}
	if recent := p.Recent(); len(recent) > 0 {
		fmt.Fprintf(w, "\nrecent queries (newest last):\n")
		fmt.Fprintf(w, "%-16s %8s %8s %10s %12s %12s %8s\n", "kind", "obj", "fanout", "rows", "busy", "merge", "skew")
		for i := range recent {
			s := &recent[i]
			obj := fmt.Sprintf("%d", s.Obj)
			if s.Obj < 0 {
				obj = "-"
			}
			fmt.Fprintf(w, "%-16s %8s %8d %10d %12s %12s %8.2f\n",
				s.Kind, obj, s.Fanout, s.Rows, fmtNs(s.BusyNs), fmtNs(s.MergeNs), s.Skew())
		}
	}
}

// fmtNs renders nanoseconds compactly, "-" for zero.
func fmtNs(ns int64) string {
	if ns == 0 {
		return "-"
	}
	return time.Duration(ns).Round(time.Microsecond).String()
}
