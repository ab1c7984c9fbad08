package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aptrace/internal/telemetry"
)

func TestLevelRoundTrip(t *testing.T) {
	for _, l := range []Level{Debug, Info, Warn, Error} {
		got, err := ParseLevel(l.String())
		if err != nil || got != l {
			t.Fatalf("ParseLevel(%q) = %v, %v", l.String(), got, err)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Fatal("ParseLevel accepted junk")
	}
}

func TestNilJournalIsFree(t *testing.T) {
	var j *Journal
	j.Emit(Error, "x", "c", "r", "m", 1, time.Second) // must not panic
	if got := j.Query(Filter{}); got != nil {
		t.Fatalf("nil Query = %v", got)
	}
	if s := j.Stats(); s != (Stats{}) {
		t.Fatalf("nil Stats = %+v", s)
	}
	var sc *Scope
	sc.Emit(Error, "x", "m", 0, 0) // must not panic
	if j.Scope("c", "r") != nil {
		t.Fatal("nil journal handed out a scope")
	}
}

func TestLevelGateAndNDJSON(t *testing.T) {
	var buf bytes.Buffer
	j := New(Options{Level: Info, Out: &buf})
	j.Emit(Debug, "noise", "", "", "dropped by level", 0, 0)
	j.Emit(Info, StageAlert, "c-1", "", "alert raised", 7, 1500*time.Millisecond)
	j.Emit(Warn, StageOpsAlert, "", "", "watchdog", 0, 0)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("NDJSON lines = %d, want 2: %q", len(lines), buf.String())
	}
	var e Entry
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Seq != 1 || e.Level != "info" || e.Stage != StageAlert || e.Corr != "c-1" || e.N != 7 || e.DurMs != 1500 {
		t.Fatalf("entry = %+v", e)
	}
	st := j.Stats()
	if st.Kept != 2 {
		t.Fatalf("stats = %+v (level-gated entries must not count as kept)", st)
	}
}

// TestDebugEntriesAllKept holds the journal to keeping every entry its level
// admits, Debug included, in emission order: nothing is sampled away.
func TestDebugEntriesAllKept(t *testing.T) {
	reg := telemetry.NewRegistry()
	j := New(Options{Level: Debug, Telemetry: reg})
	var want []string
	for i := 0; i < 500; i++ {
		j.Emit(Debug, StageDetect, "", "", fmt.Sprintf("pass %d", i), int64(i), 0)
		want = append(want, StageDetect+"|"+fmt.Sprintf("pass %d", i))
		if i%50 == 0 {
			j.Emit(Info, StageRunActive, "c-1", "s-1", fmt.Sprintf("milestone %d", i), 0, 0)
			want = append(want, StageRunActive+"|"+fmt.Sprintf("milestone %d", i))
		}
	}
	var got []string
	for _, e := range j.Query(Filter{Limit: 10000}) {
		got = append(got, e.Stage+"|"+e.Msg)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("kept %d entries, want all %d in emission order", len(got), len(want))
	}
	if st := j.Stats(); st.Kept != uint64(len(want)) ||
		reg.Snapshot().Counters[telemetry.MetricObsJournalEntries] != int64(len(want)) {
		t.Fatalf("stats = %+v, counters %v, want %d kept", st, reg.Snapshot().Counters, len(want))
	}
}

func TestQueryFilters(t *testing.T) {
	j := New(Options{Level: Debug})
	j.Emit(Info, StageIngest, "c-1", "", "batch", 10, 0)
	j.Emit(Info, StageAlert, "c-1", "", "alert", 0, 0)
	j.Emit(Info, StageRunQueued, "c-1", "s-1", "queued", 0, 0)
	j.Emit(Info, StageRunQueued, "c-2", "s-2", "queued", 0, 0)
	j.Emit(Warn, StageOpsAlert, "", "", "sse_drop_rate", 0, 0)

	if got := j.Query(Filter{Corr: "c-1"}); len(got) != 3 {
		t.Fatalf("corr filter = %d entries, want 3", len(got))
	}
	if got := j.Query(Filter{Run: "s-2"}); len(got) != 1 || got[0].Corr != "c-2" {
		t.Fatalf("run filter = %+v", got)
	}
	if got := j.Query(Filter{Min: Warn}); len(got) != 1 || got[0].Stage != StageOpsAlert {
		t.Fatalf("level filter = %+v", got)
	}
	if got := j.Query(Filter{SinceSeq: 3}); len(got) != 2 {
		t.Fatalf("since_seq filter = %d entries, want 2", len(got))
	}
	if got := j.Query(Filter{Limit: 2}); len(got) != 2 || got[1].Stage != StageOpsAlert {
		t.Fatalf("limit must keep the most recent entries: %+v", got)
	}
}

func TestRingWraparound(t *testing.T) {
	j := New(Options{Level: Debug, Ring: 8})
	for i := 0; i < 20; i++ {
		j.Emit(Info, "s", "", "", fmt.Sprintf("m%d", i), 0, 0)
	}
	got := j.Query(Filter{Limit: 100})
	if len(got) != 8 {
		t.Fatalf("ring holds %d, want 8", len(got))
	}
	for i, e := range got {
		if want := uint64(13 + i); e.Seq != want {
			t.Fatalf("entry %d Seq = %d, want %d (oldest→newest)", i, e.Seq, want)
		}
	}
}

func TestHandler(t *testing.T) {
	j := New(Options{Level: Debug})
	j.Emit(Info, StageAlert, "c-9", "", "alert", 0, 0)
	j.Emit(Info, StageRunQueued, "c-9", "s-3", "queued", 0, 0)

	rr := httptest.NewRecorder()
	j.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/journal?corr=c-9&level=info", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d: %s", rr.Code, rr.Body.String())
	}
	var resp struct {
		Entries []Entry `json:"entries"`
		Count   int     `json:"count"`
		Stats   Stats   `json:"stats"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 2 || resp.Stats.Kept != 2 {
		t.Fatalf("response = %+v", resp)
	}

	for _, bad := range []string{"level=loud", "since=yesterday", "since_seq=x", "limit=-1"} {
		rr := httptest.NewRecorder()
		j.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/journal?"+bad, nil))
		if rr.Code != 400 {
			t.Fatalf("%s: status = %d, want 400", bad, rr.Code)
		}
	}
}

func TestJournalTelemetryAndConcurrency(t *testing.T) {
	reg := telemetry.NewRegistry()
	j := New(Options{Level: Debug, Telemetry: reg})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j.Emit(Debug, "hot", "c", "r", "", 0, 0)
			}
		}()
	}
	wg.Wait()
	st := j.Stats()
	if st.Kept != 1600 {
		t.Fatalf("kept = %d, want 1600", st.Kept)
	}
	if got := reg.Snapshot().Counters[telemetry.MetricObsJournalEntries]; got != int64(st.Kept) {
		t.Fatalf("telemetry %d vs stats %+v", got, st)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

func TestJournalWriteErrorSticky(t *testing.T) {
	j := New(Options{Out: &failWriter{}})
	j.Emit(Info, "a", "", "", "", 0, 0)
	if err := j.Err(); err != nil {
		t.Fatalf("first write errored: %v", err)
	}
	j.Emit(Info, "b", "", "", "", 0, 0)
	if j.Err() != io.ErrClosedPipe {
		t.Fatalf("Err = %v, want ErrClosedPipe", j.Err())
	}
	if st := j.Stats(); st.Error != io.ErrClosedPipe.Error() {
		t.Fatalf("Stats = %+v, want the write error", st)
	}
}

func TestScopeCarriesIDs(t *testing.T) {
	j := New(Options{})
	sc := j.Scope("c-4", "s-9")
	sc.Emit(Info, StageRunTerminal, "done", 0, 250*time.Millisecond)
	got := j.Query(Filter{Corr: "c-4"})
	if len(got) != 1 || got[0].Run != "s-9" || got[0].DurMs != 250 {
		t.Fatalf("scope entry = %+v", got)
	}
}

// BenchmarkNilJournalEmit is the acceptance bound: a disabled journal's
// emission must cost single-digit nanoseconds (pointer test + return).
func BenchmarkNilJournalEmit(b *testing.B) {
	var j *Journal
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Emit(Debug, StageIngest, "c", "r", "msg", 1, time.Second)
	}
}

// BenchmarkLevelGatedEmit measures an enabled journal rejecting a
// below-level entry — the path of every Debug entry under -journal-level
// info.
func BenchmarkLevelGatedEmit(b *testing.B) {
	j := New(Options{Level: Info, Ring: -1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Emit(Debug, StageIngest, "c", "r", "msg", 1, time.Second)
	}
}

// BenchmarkEnabledEmit measures a kept Debug emission into the ring plus
// an NDJSON discard write — the full enabled path.
func BenchmarkEnabledEmit(b *testing.B) {
	j := New(Options{Level: Debug, Out: bufio.NewWriter(io.Discard)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Emit(Debug, StageIngest, "c", "r", "msg", 1, time.Second)
	}
}
