package explain

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// traceEvent is one entry of the Chrome trace-event JSON array. Field
// order is fixed by the struct, and map args are marshaled with sorted
// keys, so the exported bytes are deterministic.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"` // microseconds since the trace origin
	Dur  int64          `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// traceDoc is the JSON-object form of the format, the one Perfetto and
// chrome://tracing both accept.
type traceDoc struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// tracePid is the single process id used for the whole trace; lanes are
// threads within it.
const tracePid = 1

// WriteTrace exports every lane's log as it stands as Chrome trace-event
// JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each log
// is the thread its Bind named. The trace origin (ts 0) is the earliest
// recorded instant across all lanes; per-lane events are emitted sorted by
// start time, so ts is monotonic non-decreasing within each tid. A lane whose
// log has dropped records shows the events of the ones it retains and says
// how many it dropped. The output depends only on what was recorded —
// identical runs export identical bytes, serial or parallel.
func WriteTrace(w io.Writer, lanes []*Recorder) error {
	dumps := make([]laneDump, len(lanes))
	for i, log := range lanes {
		d := &dumps[i]
		lane := log.Progress()
		d.id, d.name = lane.ID, lane.Name
		d.events, d.dropped = log.Events()
	}
	return writeDumps(w, dumps)
}

// laneDump is one lane's share of a trace.
type laneDump struct {
	id      int64
	name    string
	dropped uint64
	events  []Event
}

// ph maps an event kind to its Chrome trace-event phase: "X" (complete, with
// a duration) or "i" (instant).
func ph(k EventKind) string {
	switch k {
	case EvRun, EvQuery, EvPause, EvStall:
		return "X"
	}
	return "i"
}

func writeDumps(w io.Writer, dumps []laneDump) error {
	var base time.Time
	haveBase := false
	for _, d := range dumps {
		for _, ev := range d.events {
			if !haveBase || ev.Start.Before(base) {
				base, haveBase = ev.Start, true
			}
		}
	}

	doc := traceDoc{DisplayTimeUnit: "ms", TraceEvents: []traceEvent{{
		Name: "process_name", Ph: "M", Pid: tracePid,
		Args: map[string]any{"name": "aptrace analysis"},
	}}}
	for _, d := range dumps {
		args := map[string]any{"name": d.name}
		if d.dropped > 0 {
			args["dropped_records"] = d.dropped
		}
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: tracePid, Tid: d.id, Args: args,
		})
	}
	for _, d := range dumps {
		evs := d.events
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start.Before(evs[j].Start) })
		for _, ev := range evs {
			te := traceEvent{
				Name: ev.Kind.String(),
				Ph:   ph(ev.Kind),
				Ts:   ev.Start.Sub(base).Microseconds(),
				Pid:  tracePid,
				Tid:  d.id,
				Args: traceArgs(ev),
			}
			if te.Ph == "X" {
				te.Dur = ev.Dur.Microseconds()
			} else {
				te.S = "t" // thread-scoped instant
			}
			doc.TraceEvents = append(doc.TraceEvents, te)
		}
	}

	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// traceArgs builds the per-kind args map (nil when there is nothing to
// say). Only integers and strings, so the JSON is stable.
func traceArgs(ev Event) map[string]any {
	var a map[string]any
	set := func(k string, v any) {
		if a == nil {
			a = make(map[string]any, 6)
		}
		a[k] = v
	}
	if ev.HasWindow {
		set("obj", int64(ev.Obj))
		set("begin", ev.Begin)
		set("finish", ev.Finish)
	}
	switch ev.Kind {
	case EvQuery:
		set("rows", ev.Rows)
		if ev.Buckets > 0 {
			set("buckets", ev.Buckets)
		}
		if ev.Cost > 0 {
			set("cost_ms", ev.Cost.Milliseconds())
		}
	case EvEnqueue, EvResplit:
		set("card", ev.Rows)
	case EvStall:
		set("gap_ms", ev.Dur.Milliseconds())
		if ev.HasWindow {
			set("rows", ev.Rows)
			if ev.Cost > 0 {
				set("cost_ms", ev.Cost.Milliseconds())
			}
		}
	case EvRun:
		set("alert", int64(ev.Alert))
		if ev.Detail != "" {
			set("reason", ev.Detail)
		}
	case EvAbandon, EvPlan:
		if ev.Detail != "" {
			set("detail", ev.Detail)
		}
	}
	return a
}

// TraceHandler serves the live trace at /debug/timeline: the current state
// of every lane lanes returns, read on each request, as trace-event JSON —
// downloadable mid-run and openable in Perfetto as-is.
func TraceHandler(lanes func() []*Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `inline; filename="aptrace-timeline.json"`)
		if err := WriteTrace(w, lanes()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// Validate checks b against the subset of the Chrome trace-event format
// WriteTrace promises: a traceEvents array whose entries all carry
// name/ph/ts/pid/tid, with ts monotonic non-decreasing within each tid
// (metadata events excepted). Tests and the CI smoke step share it.
func Validate(b []byte) error {
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("explain: trace is not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return errors.New("explain: missing traceEvents array")
	}
	lastTs := make(map[int64]float64)
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				return fmt.Errorf("explain: event %d missing required key %q", i, key)
			}
		}
		ph, _ := ev["ph"].(string)
		if ph == "M" {
			continue
		}
		tid, ok := ev["tid"].(float64)
		if !ok {
			return fmt.Errorf("explain: event %d has non-numeric tid", i)
		}
		ts, ok := ev["ts"].(float64)
		if !ok {
			return fmt.Errorf("explain: event %d has non-numeric ts", i)
		}
		if prev, seen := lastTs[int64(tid)]; seen && ts < prev {
			return fmt.Errorf("explain: event %d: ts %v regresses below %v on lane %d", i, ts, prev, int64(tid))
		}
		lastTs[int64(tid)] = ts
	}
	return nil
}
