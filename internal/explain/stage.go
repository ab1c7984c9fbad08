package explain

import (
	"time"

	"aptrace/internal/event"
)

// Decision is a record in the form the run loop stages it and the log keeps
// it: 64 bytes, no pointers. Fields mean what Record's do; At counts
// nanoseconds from the holder's base instant (Stage.Base, or the log's first
// record), strings are 1-based indexes into the holder's side table (0 =
// none), a where rejection keeps its clause position as Begin = line,
// Finish = column, and a window query keeps what it cost (see QueryCost) in
// the holder's Nums at the 1-based offset Query.
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
	Query  uint32
	State  int16
	Boost  int8
	Kind   Kind
}

// QueryCost is what a KindWindowQueried record says about its query besides
// the verdict: Start the instant before the fetch (the record's At is the
// instant after), and the posting Buckets walked and the modeled Cost in
// nanoseconds of every store query charged since the previous window query
// claimed them.
type QueryCost struct {
	Start, Buckets, Cost int64
}

// queryHead is how many numbers a QueryCost takes in Nums: start, buckets,
// cost.
const queryHead = 3

// queryAt reads the cost d keeps in nums; a record without one began when it
// ended and cost nothing.
func queryAt(nums []int64, d *Decision) QueryCost {
	if d.Query == 0 {
		return QueryCost{Start: d.At}
	}
	e := nums[d.Query-1:]
	return QueryCost{Start: e[0], Buckets: e[1], Cost: e[2]}
}

// Stage is the run loop's outbox: the executor appends one Decision per
// emission site — no lock, no counter — and hands the stage to the log
// (Recorder.Consume) once per flush. Strs holds the strings of the staged
// records, Nums the costs of the staged window queries. What the store
// charges between two window queries accumulates here too (Charge) until the
// next one claims it; Reset keeps it.
type Stage struct {
	Base time.Time
	Recs []Decision
	Strs []string
	Nums []int64

	buckets, cost int64
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

// Charge notes one charged store query: the posting buckets it walked and
// its modeled cost.
func (s *Stage) Charge(buckets int64, cost time.Duration) {
	s.buckets += buckets
	s.cost += int64(cost)
}

// Queried adds the KindWindowQueried record of a query that began at start
// and returned at, claiming everything charged since the previous one.
func (s *Stage) Queried(start, at int64) *Decision {
	off := uint32(len(s.Nums)) + 1
	s.Nums = append(s.Nums, start, s.buckets, s.cost)
	s.buckets, s.cost = 0, 0
	d := s.Add(KindWindowQueried, at)
	d.Query = off
	return d
}

// Reset empties the stage, keeping its buffers and what no query has
// claimed yet.
func (s *Stage) Reset() {
	s.Recs, s.Strs, s.Nums = s.Recs[:0], s.Strs[:0], s.Nums[:0]
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
