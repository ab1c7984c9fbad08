package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one alert
// (or one ingest batch) share Trace; Parent is the span that caused this one
// (-1 for a root). Times are offsets from the tracer's epoch.
type span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent"`
	Trace   string        `json:"trace"`
	Name    string        `json:"name"`
	StartNs time.Duration `json:"start_ns"`
	EndNs   time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one pointer test per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(trace, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, StartNs: now, EndNs: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// instant records a zero-length marker such as the first graph update.
func (t *tracer) instant(trace, name string, parent int) {
	t.begin(trace, name, parent)
}

// add records a span whose boundaries the program reported as wall-clock
// timestamps (the daemon's Summary Created/Started/Finished).
func (t *tracer) add(trace, name string, parent int, start, end time.Time) {
	if t == nil || start.IsZero() || end.Before(start) {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Trace: trace, Name: name,
		StartNs: start.Sub(t.epoch), EndNs: end.Sub(t.epoch)})
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	type iv struct{ a, b time.Duration }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			a, b := s.StartNs, s.EndNs
			if a < p.StartNs {
				a = p.StartNs
			}
			if b > p.EndNs {
				b = p.EndNs
			}
			if b > a {
				kids[s.Parent] = append(kids[s.Parent], iv{a, b})
			}
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, edge := time.Duration(0), s.StartNs
		for _, k := range ivs {
			if k.a > edge {
				edge = k.a
			}
			if k.b > edge {
				covered += k.b - edge
				edge = k.b
			}
		}
		self[i] = s.EndNs - s.StartNs - covered
	}
	return self
}

// spanTotal aggregates every span of one name.
type spanTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	// SelfShare is this name's self time as a share of all self time, i.e.
	// of the time covered by root spans.
	SelfShare float64 `json:"self_share"`
}

func (t *tracer) totals() []spanTotal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	byName := make(map[string]*spanTotal)
	var all float64
	for i, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanTotal{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalMs += ms(s.EndNs - s.StartNs)
		st.SelfMs += ms(self[i])
		all += ms(self[i])
	}
	out := make([]spanTotal, 0, len(byName))
	for _, st := range byName {
		if all > 0 {
			st.SelfShare = st.SelfMs / all
		}
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMs != out[j].SelfMs {
			return out[i].SelfMs > out[j].SelfMs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeTable prints the "where the time goes" table.
func writeTable(w io.Writer, totals []spanTotal) {
	fmt.Fprintf(w, "%-20s %8s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, st := range totals {
		fmt.Fprintf(w, "%-20s %8d %12.1f %12.1f %6.1f%%\n", st.Name, st.Count, st.TotalMs, st.SelfMs, 100*st.SelfShare)
	}
}

// writeJSON stores the spans and their per-name totals.
func (t *tracer) writeJSON(path, workload string, seed int64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	doc := struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		ByName   []spanTotal `json:"by_name"`
		Spans    []span      `json:"spans"`
	}{workload, seed, t.totals(), spans}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
