package session

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"aptrace/internal/core"
	"aptrace/internal/refiner"
	"aptrace/internal/simclock"
	"aptrace/internal/workload"
)

func TestJournalRecordsInvestigation(t *testing.T) {
	ds, err := workload.Generate(workload.Config{Seed: 9, Hosts: 4, Days: 3, Density: 0.4}, simclock.NewSimulated(time.Time{}))
	if err != nil {
		t.Fatal(err)
	}
	atk := ds.Attacks[0]
	alert, _ := ds.Store.EventByID(atk.AlertID)

	var buf bytes.Buffer
	j := NewJournal(&buf)

	var s *Session
	onUpdate, paused := pauseAtFirstUpdate(&s)
	s = New(ds.Store, core.Options{OnUpdate: onUpdate})
	s.SetJournal(j)
	if err := s.Start(atk.Scripts[0], &alert); err != nil {
		t.Fatal(err)
	}
	<-paused
	if action, err := s.UpdateScript(atk.Scripts[1]); err != nil || action != refiner.Resume {
		t.Fatalf("update: %v %v", action, err)
	}
	s.Resume()
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}

	entries, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != j.Entries() {
		t.Fatalf("read %d entries, journal counted %d", len(entries), j.Entries())
	}
	var actions []string
	for _, e := range entries {
		actions = append(actions, e.Action)
	}
	seq := strings.Join(actions, ",")
	for _, want := range []string{"start", "pause", "update-script", "resume", "finished", "finalize"} {
		if !strings.Contains(seq, want) {
			t.Errorf("journal lacks %q action: %s", want, seq)
		}
	}
	// The start entry must carry the script; the update entry its decision.
	if entries[0].Action != "start" || entries[0].Script == "" {
		t.Errorf("first entry = %+v", entries[0])
	}
	for _, e := range entries {
		if e.Action == "update-script" && e.Decision != "resume" {
			t.Errorf("update decision = %q", e.Decision)
		}
		if e.At.IsZero() {
			t.Error("entry missing wall timestamp")
		}
	}
	// The finished entry snapshots the graph size.
	for _, e := range entries {
		if e.Action == "finished" && e.Edges == 0 {
			t.Error("finished entry lacks graph size")
		}
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.record(JournalEntry{Action: "x"}) // must not panic
	if j.Err() != nil || j.Entries() != 0 {
		t.Fatal("nil journal accessors")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	if f.n > 1 {
		return 0, bytes.ErrTooLarge
	}
	return len(p), nil
}

func TestJournalStickyError(t *testing.T) {
	j := NewJournal(&failWriter{})
	j.record(JournalEntry{Action: "a"})
	j.record(JournalEntry{Action: "b"}) // fails
	j.record(JournalEntry{Action: "c"}) // suppressed by sticky error
	if j.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	if j.Entries() != 1 {
		t.Fatalf("entries = %d, want 1", j.Entries())
	}
}

func TestReadJournalMalformed(t *testing.T) {
	if _, err := ReadJournal(strings.NewReader("{bad json\n")); err == nil {
		t.Fatal("malformed journal must error")
	}
	got, err := ReadJournal(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty journal: %v %v", got, err)
	}
}
