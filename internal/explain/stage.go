package explain

import (
	"time"

	"aptrace/internal/event"
)

// Decision is a record in the form the run loop stages it and the recorder
// keeps it: 64 bytes, no pointers. Fields mean what Record's do; At counts
// nanoseconds from the holder's base instant (Stage.Base, or the recorder's
// first record), strings are 1-based indexes into the holder's side table
// (0 = none), and a where rejection keeps its clause position as
// Begin = line, Finish = column.
type Decision struct {
	At     int64
	Begin  int64
	Finish int64
	Event  event.EventID
	Node   event.ObjID
	Peer   event.ObjID
	Card   int32
	Hop    int32
	Detail uint32
	Clause uint32
	State  int16
	Boost  int8
	Kind   Kind
}

// Stage is the run loop's outbox: the executor appends one Decision per
// emission site — no lock, no counter — and hands the stage to every attached
// sink (Recorder.Consume, the timeline lane, its own span and metric
// bookkeeping) once per flush. Strs holds the strings of the staged records,
// Rows the shard splits of KindScatter.
type Stage struct {
	Base time.Time
	Recs []Decision
	Strs []string
	Rows []int64
}

// Add appends a record of the given kind stamped at (nanoseconds since Base)
// and returns it for the caller to fill in.
func (s *Stage) Add(kind Kind, at int64) *Decision {
	s.Recs = append(s.Recs, Decision{Kind: kind, At: at})
	return &s.Recs[len(s.Recs)-1]
}

// Str adds v to the stage's strings and returns its index for a Decision's
// Detail or Clause.
func (s *Stage) Str(v string) uint32 {
	s.Strs = append(s.Strs, v)
	return uint32(len(s.Strs))
}

// Reset empties the stage, keeping its buffers.
func (s *Stage) Reset() {
	s.Recs, s.Strs, s.Rows = s.Recs[:0], s.Strs[:0], s.Rows[:0]
}

// Strings is the side table of a record store: the few distinct strings its
// records carry (hosts, clauses, stop reasons), each kept once.
type Strings struct {
	list  []string
	index map[string]uint32
}

// Intern returns the 1-based index of v, adding it if new; "" is 0.
func (t *Strings) Intern(v string) uint32 {
	if v == "" {
		return 0
	}
	if i, ok := t.index[v]; ok {
		return i
	}
	if t.index == nil {
		t.index = make(map[string]uint32)
	}
	t.list = append(t.list, v)
	t.index[v] = uint32(len(t.list))
	return uint32(len(t.list))
}

// Get returns the string at index i ("" for 0).
func (t *Strings) Get(i uint32) string {
	if i == 0 {
		return ""
	}
	return t.list[i-1]
}
