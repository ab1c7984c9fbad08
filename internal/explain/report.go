package explain

import (
	"fmt"
	"io"
	"time"
)

// DefaultGapTarget is the inter-update-gap SLO target. Table II reports
// APTrace's inter-update waiting time at avg 2 s, p90 4 s, p95 9 s; the
// default target is the p95 — an update cadence the paper's own system
// sustains on enterprise workloads.
const DefaultGapTarget = 9 * time.Second

// DefaultStallFactor is the watchdog multiplier: a lane bound with the stall
// limit of a gap target stalls when no graph update lands within
// DefaultStallFactor × the target.
const DefaultStallFactor = 3

// Report is the end-of-run SLO summary across every lane.
type Report struct {
	GapTarget  time.Duration `json:"gap_target"`
	StallLimit time.Duration `json:"stall_limit"`
	Lanes      []Progress    `json:"lanes"`
	Events     int           `json:"events"`
	Dropped    int           `json:"dropped_records,omitempty"`
	Updates    int           `json:"updates"`
	Queries    int           `json:"queries"`
	StallCount int           `json:"stall_count"`
	WorstGap   time.Duration `json:"worst_gap"`
	WorstLane  string        `json:"worst_lane,omitempty"`
}

// NewReport summarizes every lane against the gap target: update cadence,
// stalls, worst gap. Lanes appear in the order given, so the report is
// deterministic.
func NewReport(target time.Duration, lanes []*Recorder) Report {
	rep := Report{GapTarget: target, StallLimit: DefaultStallFactor * target}
	for _, log := range lanes {
		lr := log.Progress()
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

// Print writes the human-readable SLO report. log, if non-nil, is the run
// log searched for the decision behind each stall (the highest-cardinality
// window decision inside the stalled interval).
func (rep Report) Print(w io.Writer, log *Recorder) {
	fmt.Fprintf(w, "SLO report: target %s, stall limit %s, lanes %d\n",
		rep.GapTarget, rep.StallLimit, len(rep.Lanes))
	lost := "dropped 0" // what a run that drops nothing has always printed
	if rep.Dropped > 0 {
		lost = fmt.Sprintf("%d records dropped by the logs' rings", rep.Dropped)
	}
	fmt.Fprintf(w, "  events %d (%s), updates %d, queries %d\n", rep.Events, lost, rep.Updates, rep.Queries)
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
			if rec, ok := CorrelateStall(s, log); ok {
				fmt.Fprintf(w, "; explain seq=%d %s obj=%d card=%d", rec.Seq, rec.Kind, rec.Node, rec.Card)
			}
			fmt.Fprintln(w)
		}
	}
}

// CorrelateStall finds the record of log that best explains a stall: the
// window-queried/window-resplit decision inside the stalled interval with
// the largest cardinality, preferring records on the offending window's
// object. It returns false when no record falls inside the interval (or
// log is nil).
func CorrelateStall(s Stall, log *Recorder) (Record, bool) {
	var best Record
	found := false
	lo, hi := s.At, s.At.Add(s.Gap)
	better := func(c Cursor) bool {
		if !found {
			return true
		}
		bObj := s.HasWindow && best.Node == s.Obj
		cObj := s.HasWindow && c.Node == s.Obj
		if bObj != cObj {
			return cObj
		}
		return int(c.Card) > best.Card
	}
	log.Scan(func(c Cursor) bool {
		if c.Kind != KindWindowQueried && c.Kind != KindWindowResplit {
			return true
		}
		if at := c.Time(); !at.Before(lo) && !at.After(hi) && better(c) {
			best, found = c.Record(), true
		}
		return true
	})
	return best, found
}
