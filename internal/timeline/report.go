package timeline

import (
	"fmt"
	"io"
	"time"

	"aptrace/internal/explain"
)

// LaneReport summarizes one lane for the end-of-run SLO report.
type LaneReport struct {
	ID       int64         `json:"id"`
	Name     string        `json:"name"`
	Events   int           `json:"events"`
	Dropped  int           `json:"dropped,omitempty"`
	Updates  int           `json:"updates"`
	Queries  int           `json:"queries"`
	WorstGap time.Duration `json:"worst_gap"`
	Stalls   []Stall       `json:"stalls,omitempty"`
}

// Report is the end-of-run SLO summary across every lane.
type Report struct {
	GapTarget  time.Duration `json:"gap_target"`
	StallLimit time.Duration `json:"stall_limit"`
	Lanes      []LaneReport  `json:"lanes"`
	Events     int           `json:"events"`
	Dropped    int           `json:"dropped,omitempty"`
	Updates    int           `json:"updates"`
	Queries    int           `json:"queries"`
	StallCount int           `json:"stall_count"`
	WorstGap   time.Duration `json:"worst_gap"`
	WorstLane  string        `json:"worst_lane,omitempty"`
}

// Stats returns the lane's current report entry (zero on a nil recorder).
// Harnesses use it to aggregate over exactly the lanes they allocated,
// independent of whatever else a shared profiler holds.
func (r *Recorder) Stats() LaneReport {
	if r == nil {
		return LaneReport{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return LaneReport{
		ID: r.id, Name: r.name,
		Events: r.n, Dropped: r.dropped,
		Updates: r.updates, Queries: r.queries,
		WorstGap: r.worstGap,
		Stalls:   append([]Stall(nil), r.stalls...),
	}
}

// Report summarizes every lane: update cadence, stalls, worst gap. Lanes
// appear in allocation order, so the report is deterministic.
func (p *Profiler) Report() Report {
	rep := Report{GapTarget: p.GapTarget(), StallLimit: p.StallLimit()}
	for _, r := range p.snapshot() {
		lr := r.Stats()
		rep.Lanes = append(rep.Lanes, lr)
		rep.Events += lr.Events
		rep.Dropped += lr.Dropped
		rep.Updates += lr.Updates
		rep.Queries += lr.Queries
		rep.StallCount += len(lr.Stalls)
		if lr.WorstGap > rep.WorstGap {
			rep.WorstGap = lr.WorstGap
			rep.WorstLane = lr.Name
		}
	}
	return rep
}

// maxPrintedStalls bounds the per-report stall listing; the full set stays
// available on the Report value.
const maxPrintedStalls = 8

// Print writes the human-readable SLO report. recs, if non-nil, are
// explain records used to name the decision behind each stall (the
// highest-cardinality window decision inside the stalled interval).
func (rep Report) Print(w io.Writer, recs []explain.Record) {
	fmt.Fprintf(w, "SLO report: target %s, stall limit %s, lanes %d\n",
		rep.GapTarget, rep.StallLimit, len(rep.Lanes))
	fmt.Fprintf(w, "  events %d (dropped %d), updates %d, queries %d\n",
		rep.Events, rep.Dropped, rep.Updates, rep.Queries)
	if rep.WorstGap > 0 {
		fmt.Fprintf(w, "  worst inter-update gap %s (lane %q)\n", rep.WorstGap, rep.WorstLane)
	}
	if rep.StallCount == 0 {
		fmt.Fprintf(w, "  stalls: none — every gap within %s\n", rep.StallLimit)
		return
	}
	fmt.Fprintf(w, "  stalls: %d\n", rep.StallCount)
	printed := 0
	for _, lane := range rep.Lanes {
		for _, s := range lane.Stalls {
			if printed == maxPrintedStalls {
				fmt.Fprintf(w, "  ... %d more\n", rep.StallCount-printed)
				return
			}
			printed++
			fmt.Fprintf(w, "  [%s] gap %s after t=%s", s.LaneName, s.Gap, s.At.Format("15:04:05"))
			if s.HasWindow {
				fmt.Fprintf(w, "; offending query obj=%d [%d,%d) rows=%d cost=%s",
					s.Obj, s.Begin, s.Finish, s.Rows, s.Cost)
			}
			if rec, ok := CorrelateStall(s, recs); ok {
				fmt.Fprintf(w, "; explain seq=%d %s obj=%d card=%d", rec.Seq, rec.Kind, rec.Node, rec.Card)
			}
			fmt.Fprintln(w)
		}
	}
}

// CorrelateStall finds the explain record that best explains a stall: the
// window-queried/window-resplit decision inside the stalled interval with
// the largest cardinality, preferring records on the offending window's
// object. It returns false when no record falls inside the interval (or
// recs is nil — explain recording off).
func CorrelateStall(s Stall, recs []explain.Record) (explain.Record, bool) {
	var best explain.Record
	found := false
	lo, hi := s.At, s.At.Add(s.Gap)
	better := func(r explain.Record) bool {
		if !found {
			return true
		}
		bObj := s.HasWindow && best.Node == s.Obj
		rObj := s.HasWindow && r.Node == s.Obj
		if bObj != rObj {
			return rObj
		}
		return r.Card > best.Card
	}
	for _, r := range recs {
		switch r.Kind {
		case explain.KindWindowQueried, explain.KindWindowResplit:
		default:
			continue
		}
		if r.At.Before(lo) || r.At.After(hi) {
			continue
		}
		if better(r) {
			best, found = r, true
		}
	}
	return best, found
}
