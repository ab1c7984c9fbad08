package explain

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"aptrace/internal/event"
)

// Explanation is the causal justification for one object, assembled from the
// flight recorder: why it is (or is not) in the dependency graph.
type Explanation struct {
	Node event.ObjID `json:"node"`
	// Included: the object entered the graph (Inclusion says how).
	// Start: the object is the alert's flow destination (hop 0).
	Included bool `json:"included"`
	Start    bool `json:"start"`
	// Inclusion is the record that brought the object into the graph
	// (edge-added, or run-start for the starting object).
	Inclusion *Record `json:"inclusion,omitempty"`
	// Exclusions are the records that kept candidates out: where-clause
	// rejections, host filtering, hop-budget refusals, dropped-object
	// skips, and abandoned windows.
	Exclusions []Record `json:"exclusions,omitempty"`
	// Scheduling traces the object's execution windows (enqueued, empty,
	// re-split, queried, abandoned).
	Scheduling []Record `json:"scheduling,omitempty"`
}

// Explain assembles the justification for node from the retained records,
// read in place: only the records about node are rebuilt. Nil-safe: a
// disabled log explains nothing.
func (r *Recorder) Explain(node event.ObjID) Explanation {
	ex := Explanation{Node: node}
	r.Scan(func(c Cursor) bool {
		if c.Node != node {
			return true
		}
		switch c.Kind {
		case KindRunStart:
			ex.Included, ex.Start = true, true
			rec := c.Record()
			ex.Inclusion = &rec
		case KindEdgeAdded:
			ex.Included = true
			if ex.Inclusion == nil {
				rec := c.Record()
				ex.Inclusion = &rec
			}
		case KindEdgeDedup:
			// Neutral: the candidate was already an edge.
		case KindEdgeDropped, KindEdgeHostFiltered, KindEdgeWhereRejected, KindEdgeHopBudget:
			ex.Exclusions = append(ex.Exclusions, c.Record())
		case KindWindowEnqueued, KindWindowEmpty, KindWindowResplit, KindWindowQueried, KindWindowAbandoned:
			ex.Scheduling = append(ex.Scheduling, c.Record())
		}
		return true
	})
	return ex
}

// Empty reports whether the recorder held no decision at all about the
// object — it was never a candidate, never scheduled, never included.
func (e Explanation) Empty() bool {
	return !e.Included && len(e.Exclusions) == 0 && len(e.Scheduling) == 0
}

// fmtWindow renders a half-open window in the compact UTC form used by the
// CLI transcript.
func fmtWindow(b, f int64) string {
	const layout = "01/02 15:04:05"
	return fmt.Sprintf("[%s, %s)", time.Unix(b, 0).UTC().Format(layout), time.Unix(f, 0).UTC().Format(layout))
}

// Justification renders the explanation as analyst-readable lines. label
// resolves object IDs to display names (normally store.Object(...).Label).
// The result is non-empty whenever the recorder holds any decision about the
// object; an object the analysis never reached yields one line saying so.
func (e Explanation) Justification(label func(event.ObjID) string) string {
	var sb strings.Builder
	switch {
	case e.Start:
		fmt.Fprintf(&sb, "starting point: alert event #%d made %s the hop-0 object\n",
			e.Inclusion.Event, label(e.Node))
	case e.Included && e.Inclusion != nil:
		fmt.Fprintf(&sb, "included via event #%d from %s at hop %d, discovered in window %s",
			e.Inclusion.Event, label(e.Inclusion.Peer), e.Inclusion.Hop, fmtWindow(e.Inclusion.Begin, e.Inclusion.Finish))
		if e.Inclusion.Boost > 0 {
			sb.WriteString(", boosted by a prioritize rule")
		}
		sb.WriteString("\n")
	case e.Included:
		fmt.Fprintf(&sb, "included (inclusion record rotated out of the ring)\n")
	}
	seen := map[string]bool{}
	for _, rec := range e.Exclusions {
		line := ""
		switch rec.Kind {
		case KindEdgeWhereRejected:
			line = fmt.Sprintf("excluded: where clause `%s` (bdl:%s) rejected candidate event #%d", rec.Clause, rec.Pos, rec.Event)
		case KindEdgeHostFiltered:
			line = fmt.Sprintf("excluded: host %q fails the general 'in' constraint (event #%d)", rec.Detail, rec.Event)
		case KindEdgeHopBudget:
			line = fmt.Sprintf("excluded: edge #%d would reach hop %d, over the hop budget %d", rec.Event, rec.Hop, rec.Card)
		case KindEdgeDropped:
			line = fmt.Sprintf("excluded: object already deleted by the where statement (event #%d skipped)", rec.Event)
		}
		if line != "" && !seen[line] {
			seen[line] = true
			sb.WriteString(line + "\n")
		}
	}
	for _, rec := range e.Scheduling {
		if rec.Kind == KindWindowAbandoned {
			line := fmt.Sprintf("frontier window %s never ran: %s", fmtWindow(rec.Begin, rec.Finish), rec.Detail)
			if !seen[line] {
				seen[line] = true
				sb.WriteString(line + "\n")
			}
		}
	}
	if sb.Len() == 0 {
		return "no decision recorded: the analysis never reached this object\n"
	}
	return sb.String()
}

// Pruned is one prune-frontier entry: an object that was a candidate for the
// graph but was kept out, with the first decision that excluded it and, where
// known, the graph node the excluded edge would have attached to.
type Pruned struct {
	Node   event.ObjID
	Peer   event.ObjID // graph-side endpoint of the rejected edge (0 if unknown)
	Kind   Kind
	Reason string
}

// PruneFrontier lists the objects excluded from the analysis, one entry per
// object (the earliest exclusion wins), sorted by object ID for
// deterministic output. Objects that later made it into the graph anyway
// (e.g. admitted after a plan update relaxed the filter) are omitted.
func (r *Recorder) PruneFrontier() []Pruned {
	included := map[event.ObjID]bool{}
	first := map[event.ObjID]Pruned{}
	r.Scan(func(c Cursor) bool {
		switch c.Kind {
		case KindRunStart, KindEdgeAdded:
			included[c.Node] = true
		case KindEdgeWhereRejected, KindEdgeHostFiltered, KindEdgeHopBudget:
			if _, ok := first[c.Node]; ok {
				break
			}
			rec := c.Record()
			p := Pruned{Node: rec.Node, Peer: rec.Peer, Kind: rec.Kind}
			switch rec.Kind {
			case KindEdgeWhereRejected:
				p.Reason = fmt.Sprintf("where clause `%s` (bdl:%s)", rec.Clause, rec.Pos)
			case KindEdgeHostFiltered:
				p.Reason = fmt.Sprintf("host %q outside 'in' constraint", rec.Detail)
			case KindEdgeHopBudget:
				p.Reason = fmt.Sprintf("hop budget %d", rec.Card)
			}
			first[rec.Node] = p
		}
		return true
	})
	out := make([]Pruned, 0, len(first))
	for id, p := range first {
		if included[id] {
			continue
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// dumpPayload is the /debug/explain response body.
type dumpPayload struct {
	Emitted uint64   `json:"emitted"`
	Dropped uint64   `json:"dropped"`
	Records []Record `json:"records"`
}

// Handler returns an http.Handler dumping the recorder as JSON — mounted at
// /debug/explain next to the telemetry endpoints. Safe on a nil recorder
// (serves an empty dump).
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		emitted, dropped := r.Stats()
		recs := r.Records()
		if recs == nil {
			recs = []Record{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(dumpPayload{Emitted: emitted, Dropped: dropped, Records: recs})
	})
}
