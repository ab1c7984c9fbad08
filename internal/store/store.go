// Package store implements APTrace's embedded audit-event database.
//
// It stands in for the PostgreSQL deployment the paper used (13 TB of events
// from 256 hosts, stored time-partitioned). The store keeps a normalized
// object table, a time-sorted event log, and per-object posting lists that
// serve the one query backtracking needs: "all events whose data-flow
// destination is object o within time range [from, to)".
//
// Every query charges a simclock.CostModel to the injected Clock for the
// index entries it examined and the time buckets (partitions) it touched.
// Under the simulated clock this reproduces the latency profile of the
// paper's database without requiring terabytes of data; under the real clock
// the charges are no-ops.
//
// Lifecycle: create with New, ingest with AddEvent (events may arrive in any
// time order), then Seal to sort and build indexes. Queries are only allowed
// on a sealed store; AddEvent is only allowed before sealing. A sealed store
// is safe for concurrent readers.
//
// A store is always a list of parts (see shard.go): AddEvent routes each
// event to a part by host × time epoch, Seal sorts and indexes every part,
// and every query collects one posting run per part that holds rows of the
// window and merges them. New gives one part; WithShards(n) gives n. The
// part count is data to the query path, never a different code path: one run
// is copied or walked in place, several are merged in (time, arrival) order.
package store

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/qprof"
	"aptrace/internal/simclock"
	"aptrace/internal/telemetry"
)

// DefaultBucketSeconds is the default time-partition width: one hour, the
// granularity at which a partitioned audit table would be pruned.
const DefaultBucketSeconds = 3600

// ErrSealed is returned by mutating calls on a sealed store.
var ErrSealed = errors.New("store: already sealed")

// ErrNotSealed is returned by queries on an unsealed store.
var ErrNotSealed = errors.New("store: not sealed; call Seal before querying")

// Stats aggregates the work a store has performed, for the efficiency
// experiments (Figure 6) and for debugging cost calibration.
type Stats struct {
	Events        int   // total events stored
	Objects       int   // total distinct objects
	Queries       int64 // queries executed
	RowsExamined  int64 // index entries examined across all queries
	BucketsPruned int64 // time buckets touched across all queries
}

// Store is the embedded event database. See the package documentation for
// the lifecycle contract.
type Store struct {
	clock simclock.Clock
	cost  simclock.CostModel

	bucketSeconds int64

	// objects is append-only: a live snapshot shares the write side's table
	// by prefix. keys is shared by views.
	objects []event.Object
	keys    *keyIndex

	// parts hold the events: len(parts) >= 1, one unless WithShards asked for
	// more. After Seal the parts, the directory and the ID index are
	// immutable and shared by every View.
	parts  []*part
	total  int // events across all parts
	sealed bool

	// dir is the global time-order directory, built at Seal: dir[i] packs
	// (part<<32 | position) of the i-th event in (time, arrival) order. Scan,
	// EventAt, Save and sampling walk it, so their output does not depend on
	// the part count.
	dir []uint64

	// idPos is the dense EventID index (idPos[id-1] = packed ref + 1); byID
	// is the fallback when IDs are not a permutation of 1..n.
	idPos []uint64
	byID  map[event.EventID]uint64

	sealWorkers int // fixed Seal worker count (tests pin it); 0 = GOMAXPROCS for large logs, one for small

	shardSet   bool  // WithShards was applied (overrides manifest shards)
	shardEpoch int64 // host×time routing epoch seconds; 0 = one segment span

	// Real-CPU observability of the timed scatters and of Seal, shared
	// across views (tooling only, never part of charged cost).
	scat     *scatterStats
	sealWall time.Duration

	minTime, maxTime int64 // inclusive bounds over stored events

	// stats counters are updated atomically: a sealed store promises safe
	// concurrent readers, and every query mutates them.
	stats Stats

	// isView marks a read view created by View: it shares the parent's
	// immutable event log and indexes and must never mutate them.
	isView bool

	reg *telemetry.Registry
	tel storeMetrics

	// costObs, if set, observes every charged query (timeline cost
	// attribution). Per store/view, never inherited by View.
	costObs CostObserver

	// scatterObs, if set, observes the shard fan-out and per-shard row split
	// of every routed query (timeline shard breakdown). Like costObs it is
	// per store/view and never inherited by View.
	scatterObs ScatterObserver

	// qp is the attached query profiler. Unlike the observers above it is
	// SHARED by views — batch triage and fleet runs aggregate into one
	// profile — and is an atomic pointer, so it may be attached while
	// queries run. A nil profiler costs one atomic load per query.
	qp atomic.Pointer[qprof.Profiler]

	// batch is where a view builds its profiler samples and keeps them until
	// sampleBatchLen are due (see sampleBatch); nil on a root store and until
	// the first observed query.
	batch *sampleBatch
}

// storeMetrics holds the store's pre-resolved telemetry instruments. All
// fields are nil when telemetry is disabled; nil instruments no-op.
type storeMetrics struct {
	queries       *telemetry.Counter
	rowsExamined  *telemetry.Counter
	bucketsPruned *telemetry.Counter
	postingHits   *telemetry.Counter
	postingMisses *telemetry.Counter
	queryRows     *telemetry.Histogram
	queryLatency  *telemetry.Histogram
	shards        *telemetry.Gauge

	// Scatter and seal real-CPU observability (never charged cost): timed
	// scatters, their busy/savable nanos, the per-task busy distribution,
	// per-query shard fan-out, and the seal's wall nanos.
	scatters       *telemetry.Counter
	scatterBusy    *telemetry.Counter
	scatterSavable *telemetry.Counter
	shardBusy      *telemetry.Histogram
	scatterFanout  *telemetry.Histogram
	sealWall       *telemetry.Gauge
}

func newStoreMetrics(reg *telemetry.Registry) storeMetrics {
	return storeMetrics{
		queries:       reg.Counter(telemetry.MetricStoreQueries),
		rowsExamined:  reg.Counter(telemetry.MetricStoreRowsExamined),
		bucketsPruned: reg.Counter(telemetry.MetricStoreBucketsPruned),
		postingHits:   reg.Counter(telemetry.MetricStorePostingHits),
		postingMisses: reg.Counter(telemetry.MetricStorePostingMisses),
		queryRows:     reg.Histogram(telemetry.MetricStoreQueryRows, telemetry.RowBuckets),
		queryLatency:  reg.Histogram(telemetry.MetricStoreQueryLatency, telemetry.LatencyBuckets),
		shards:        reg.Gauge(telemetry.MetricStoreShards),

		scatters:       reg.Counter(telemetry.MetricStoreScatters),
		scatterBusy:    reg.Counter(telemetry.MetricStoreScatterBusyNs),
		scatterSavable: reg.Counter(telemetry.MetricStoreScatterSavableNs),
		shardBusy:      reg.Histogram(telemetry.MetricStoreShardBusyNs, telemetry.ShardBusyBuckets),
		scatterFanout:  reg.Histogram(telemetry.MetricStoreScatterFanout, telemetry.FanoutBuckets),
		sealWall:       reg.Gauge(telemetry.MetricStoreSealWallNs),
	}
}

// Option configures a Store.
type Option func(*Store)

// WithTelemetry attaches a metrics registry: every query publishes its
// rows-examined and modeled latency, and posting-list lookups count hits
// and misses. A nil registry (the default) disables publication at
// near-zero cost.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(st *Store) { st.SetTelemetry(reg) }
}

// New returns an empty, unsealed store charging query costs to clk.
// A nil clock defaults to the real clock (no simulated charges).
func New(clk simclock.Clock, opts ...Option) *Store {
	if clk == nil {
		clk = simclock.Real{}
	}
	st := &Store{
		clock:         clk,
		cost:          simclock.DefaultCostModel(),
		bucketSeconds: DefaultBucketSeconds,
		keys:          &keyIndex{},
		parts:         []*part{{}},
		scat:          &scatterStats{},
	}
	for _, o := range opts {
		o(st)
	}
	return st
}

// keyIndex maps object keys to IDs. It is built from the object table on
// first use, once, so a live snapshot that nobody looks objects up in by key
// (nothing on the query path does) never builds it.
type keyIndex struct {
	once  sync.Once
	byKey map[event.ObjectKey]event.ObjID
}

// byKey returns the store's key index, building it first if need be.
func (s *Store) byKey() map[event.ObjectKey]event.ObjID {
	k := s.keys
	k.once.Do(func() {
		k.byKey = make(map[event.ObjectKey]event.ObjID, len(s.objects))
		for i, o := range s.objects {
			k.byKey[o.Key()] = event.ObjID(i)
		}
	})
	return k.byKey
}

// Clock returns the clock this store charges query costs to.
func (s *Store) Clock() simclock.Clock { return s.clock }

// SetTelemetry attaches (or detaches, with nil) a metrics registry. It is
// not safe to call concurrently with queries; wire telemetry before
// handing the store to readers.
func (s *Store) SetTelemetry(reg *telemetry.Registry) {
	s.reg = reg
	s.tel = newStoreMetrics(reg)
	s.tel.shards.Set(int64(len(s.parts)))
	// A store sealed before telemetry was attached (Open seals during load)
	// still publishes its seal accounting.
	if s.sealed {
		s.tel.sealWall.Set(int64(s.sealWall))
	}
}

// Telemetry returns the attached registry (nil when disabled).
func (s *Store) Telemetry() *telemetry.Registry { return s.reg }

// CostObserver receives, per charged query, the rows examined, posting
// buckets walked, and modeled cost the store billed to its clock. The
// executor stages it into the run log for per-window cost attribution.
type CostObserver func(rows, buckets int64, cost time.Duration)

// SetCostObserver attaches (or detaches, with nil) a per-query cost
// observer. Like SetTelemetry it is not safe to call concurrently with
// queries; attach the observer before the run starts. Views do not
// inherit the parent's observer — each run attaches its own to its own
// view, so parallel fleets never share one.
func (s *Store) SetCostObserver(fn CostObserver) {
	s.costObs = fn
}

// ScatterObserver receives, per routed query on a sharded store, the shard
// fan-out and the per-shard row split (indexed by shard, summing to the rows
// the query charged). The timeline uses it to carry a shard breakdown on
// query events. Rows are deterministic — never timing — so traces stay
// byte-comparable across runs. A store with one part has no split to report
// and never calls it.
type ScatterObserver func(fanout int, shardRows []int64)

// SetScatterObserver attaches (or detaches, with nil) a per-query scatter
// observer. Like SetCostObserver it is per store/view, never inherited by
// View, and must be attached before the run starts. On a store with one part
// it attaches nothing.
func (s *Store) SetScatterObserver(fn ScatterObserver) {
	if len(s.parts) > 1 {
		s.scatterObs = fn
	}
}

// SetQueryProfiler attaches (or detaches, with nil) a scatter-gather query
// profiler. Unlike the cost observer the profiler is shared by the views
// made after it — a fleet aggregates one profile — and attachment is
// atomic. Profiling observes real CPU only: charged cost, Stats, and query
// results are byte-identical with the profiler attached or nil.
func (s *Store) SetQueryProfiler(p *qprof.Profiler) {
	s.FlushQueryProfile() // what the view still holds belongs to the old profiler
	s.qp.Store(p)
}

// Intern returns the ObjID for o, assigning a new one if the object has not
// been seen. Interning is permitted both before and after sealing (sealing
// freezes events, not the object table), but is not safe for concurrent use
// with other writers — in particular, a store with live Views must not
// Intern, and the views themselves are strictly read-only.
func (s *Store) Intern(o event.Object) event.ObjID {
	if s.isView {
		panic("store: Intern on a read view (views are read-only)")
	}
	key, byKey := o.Key(), s.byKey()
	if id, ok := byKey[key]; ok {
		return id
	}
	id := event.ObjID(len(s.objects))
	s.objects = append(s.objects, o)
	byKey[key] = id
	return id
}

// Lookup returns the ObjID for an object that may or may not be interned.
func (s *Store) Lookup(o event.Object) (event.ObjID, bool) {
	id, ok := s.byKey()[o.Key()]
	return id, ok
}

// Object returns the object for an ID. It panics on an out-of-range ID,
// which always indicates a bug (IDs are only produced by this store).
func (s *Store) Object(id event.ObjID) event.Object {
	return s.objects[id]
}

// ObjectRef returns the object for an ID in place, in the object table, for
// a caller that reads a field or two per call and must not write: a
// per-candidate host constraint, the update stream's frame encoder.
func (s *Store) ObjectRef(id event.ObjID) *event.Object {
	return &s.objects[id]
}

// NumObjects returns the number of distinct interned objects.
func (s *Store) NumObjects() int { return len(s.objects) }

// NumEvents returns the number of stored events.
func (s *Store) NumEvents() int { return s.total }

// TimeRange returns the inclusive [min, max] event-time bounds, or ok=false
// if the store is empty.
func (s *Store) TimeRange() (min, max int64, ok bool) {
	if s.NumEvents() == 0 {
		return 0, 0, false
	}
	return s.minTime, s.maxTime, true
}

// AddEvent appends a new event. The subject must be a process object.
// Events may be added in any time order; Seal sorts them. The returned
// EventID is stable across Seal and persistence.
func (s *Store) AddEvent(t int64, subject, object event.Object, action event.Action, dir event.Direction, amount int64) (event.EventID, error) {
	if s.sealed {
		return 0, ErrSealed
	}
	if subject.Type != event.ObjProcess {
		return 0, fmt.Errorf("store: event subject must be a process, got %v", subject.Type)
	}
	id := event.EventID(s.NumEvents() + 1) // IDs start at 1; 0 means "no event"
	e := event.Event{
		ID:      id,
		Time:    t,
		Subject: s.Intern(subject),
		Object:  s.Intern(object),
		Action:  action,
		Dir:     dir,
		Amount:  amount,
	}
	s.add(e, subject.Host)
	return id, nil
}

// addRaw appends an already-normalized event during segment loading.
func (s *Store) addRaw(e event.Event) error {
	if s.sealed {
		return ErrSealed
	}
	if int(e.Subject) >= len(s.objects) || int(e.Object) >= len(s.objects) {
		return fmt.Errorf("store: event %d references unknown object", e.ID)
	}
	s.add(e, s.objects[e.Subject].Host)
	return nil
}

// Sealed reports whether the store has been sealed.
func (s *Store) Sealed() bool { return s.sealed }

// View returns a cheap per-run read view of a sealed store: it shares the
// immutable event log, object table, and posting-list indexes, but charges
// query costs to its own clock and accumulates its own Stats. Many views may
// be used concurrently — this is what lets a fleet of analyses fan out over
// one store while each run's simulated cost accounting stays isolated and
// deterministic.
//
// A nil clock inherits the parent's clock (useful for real-clock
// deployments, where sharing the wall clock is exactly right). The attached
// telemetry registry is shared: instrument updates are atomic, so fleet
// runs aggregate into the same counters a serial run would.
//
// Views are strictly read-only: AddEvent and Seal fail as on any sealed
// store, and Intern panics. The parent must not Intern while views are in
// use (object-table growth is not synchronized with view readers).
//
// A view is one run's handle: its clock, its observers and the batch it
// builds its profiler samples in (see FlushQueryProfile) are unsynchronized,
// so queries on ONE view must come from one goroutine at a time. Concurrency
// comes from many views.
func (s *Store) View(clk simclock.Clock) (*Store, error) {
	if !s.sealed {
		return nil, ErrNotSealed
	}
	if clk == nil {
		clk = s.clock
	}
	v := &Store{
		clock:         clk,
		cost:          s.cost,
		bucketSeconds: s.bucketSeconds,
		objects:       s.objects,
		keys:          s.keys,
		parts:         s.parts,
		total:         s.total,
		sealed:        true,
		dir:           s.dir,
		idPos:         s.idPos,
		byID:          s.byID,
		shardSet:      s.shardSet,
		shardEpoch:    s.shardEpoch,
		scat:          s.scat,
		sealWall:      s.sealWall,
		minTime:       s.minTime,
		maxTime:       s.maxTime,
		isView:        true,
		reg:           s.reg,
		tel:           s.tel,
	}
	v.stats.Events = s.NumEvents()
	v.stats.Objects = len(s.objects)
	v.qp.Store(s.qp.Load())
	return v, nil
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Events:        s.NumEvents(),
		Objects:       len(s.objects),
		Queries:       atomic.LoadInt64(&s.stats.Queries),
		RowsExamined:  atomic.LoadInt64(&s.stats.RowsExamined),
		BucketsPruned: atomic.LoadInt64(&s.stats.BucketsPruned),
	}
	return st
}

// charge records and bills the cost of one query.
func (s *Store) charge(rows, from, to int64) {
	buckets := int64(0)
	if to > from {
		buckets = (to-from)/s.bucketSeconds + 1
	}
	atomic.AddInt64(&s.stats.Queries, 1)
	atomic.AddInt64(&s.stats.RowsExamined, rows)
	atomic.AddInt64(&s.stats.BucketsPruned, buckets)
	s.tel.queries.Inc()
	s.tel.rowsExamined.Add(rows)
	s.tel.bucketsPruned.Add(buckets)
	s.tel.queryRows.Observe(float64(rows))
	s.tel.queryLatency.Observe(s.cost.QueryCost(int(rows), int(buckets)).Seconds())
	if s.costObs != nil {
		s.costObs(rows, buckets, s.cost.QueryCost(int(rows), int(buckets)))
	}
	s.cost.Charge(s.clock, int(rows), int(buckets))
}

// appendPosting is the posting walk behind AppendBackward and AppendForward:
// collect the window's run from every part that holds rows of it, append the
// rows to buf in (time, arrival) order, and charge the cost model once for
// the rows plus the buckets covered. One run is already in that order and is
// copied; several are merged. It allocates only when buf lacks capacity,
// which is what makes the steady-state window loop allocation-free.
func (s *Store) appendPosting(buf []event.Event, obj event.ObjID, forward bool, from, to int64) ([]event.Event, error) {
	if !s.sealed {
		return buf, ErrNotSealed
	}
	var scratch [MaxShards]run
	runs, postingLen, rows := s.collect(scratch[:0], obj, forward, from, to)
	s.noteProbe(postingLen, len(runs))
	// Snapshot per-part rows before the merge consumes the run cursors.
	qp, b := s.sampling()
	s.split(b, runs, nil)
	if need := len(buf) + rows; need > cap(buf) {
		grown := make([]event.Event, len(buf), need)
		copy(grown, buf)
		buf = grown
	}
	var mergeNs int64
	switch len(runs) {
	case 0:
	case 1:
		r := runs[0]
		p, pl := s.cols(r)
		events, out := p.events, buf[len(buf):len(buf)+rows]
		for i, q := range pl.idx[r.lo:r.hi] {
			out[i] = events[q]
		}
		buf = buf[:len(buf)+rows]
	default:
		// Time the k-way merge only when a profiler is listening.
		var start time.Time
		if qp != nil {
			start = time.Now()
		}
		buf = s.mergeRuns(buf, runs, rows)
		if qp != nil {
			mergeNs = int64(time.Since(start))
		}
	}
	s.charge(int64(rows), from, to)
	if b != nil {
		s.emit(qp, b, postingKind(forward, false), int64(rows), mergeNs)
	}
	return buf, nil
}

// countPosting is the cardinality estimate behind CountBackward and
// CountForward: per-part window counts summed. It does not materialize or
// charge: it models an index-only estimate, which real planners get almost
// for free. Its totals feed the executor's re-split logic.
func (s *Store) countPosting(obj event.ObjID, forward bool, from, to int64) (int, error) {
	if !s.sealed {
		return 0, ErrNotSealed
	}
	qp, b := s.sampling()
	var postingLen, rows, fanout int
	for pi, p := range s.parts {
		lo, hi, n := p.window(obj, forward, from, to)
		postingLen += n
		if lo < hi {
			rows += int(hi - lo)
			fanout++
			if b != nil && len(s.parts) > 1 {
				b.shards = append(b.shards, qprof.ShardSample{Shard: pi, Rows: int64(hi - lo)})
			}
		}
	}
	s.noteProbe(postingLen, fanout)
	if b != nil {
		s.emit(qp, b, postingKind(forward, true), int64(rows), 0)
	}
	return rows, nil
}

// AppendBackward appends to buf the events whose data-flow destination is dst
// with timestamps in the half-open window [from, to), in ascending time
// order, and returns the extended buffer. This is the backtracking primitive:
// the appended events are exactly the candidate backward dependencies of any
// event whose source is dst. Reusing one buffer across a run's window queries
// keeps the hot loop allocation-free; a nil buf allocates the exact result.
//
// The query charges the cost model for the rows returned plus the buckets
// covered by the window.
func (s *Store) AppendBackward(buf []event.Event, dst event.ObjID, from, to int64) ([]event.Event, error) {
	return s.appendPosting(buf, dst, false, from, to)
}

// AppendForward appends the events whose data-flow source is src within
// [from, to), in ascending time order; see AppendBackward. Forward queries
// serve the anomaly detector and forward (impact) tracking.
func (s *Store) AppendForward(buf []event.Event, src event.ObjID, from, to int64) ([]event.Event, error) {
	return s.appendPosting(buf, src, true, from, to)
}

// CountBackward returns the number of events AppendBackward would append,
// without materializing or charging for them.
func (s *Store) CountBackward(dst event.ObjID, from, to int64) (int, error) {
	return s.countPosting(dst, false, from, to)
}

// CountForward returns the number of events AppendForward would append,
// without materializing or charging for them.
func (s *Store) CountForward(src event.ObjID, from, to int64) (int, error) {
	return s.countPosting(src, true, from, to)
}

// EventByID returns the stored event with the given ID.
func (s *Store) EventByID(id event.EventID) (event.Event, bool) {
	if !s.sealed {
		return event.Event{}, false
	}
	if s.idPos != nil {
		if id < 1 || int(id) > len(s.idPos) {
			return event.Event{}, false
		}
		return *s.at(s.idPos[id-1] - 1), true
	}
	ref, ok := s.byID[id]
	if !ok {
		return event.Event{}, false
	}
	return *s.at(ref), true
}

// Scan calls fn for every event in [from, to) in ascending time order,
// stopping early if fn returns false. Scan charges for every row visited:
// it models a sequential partition scan.
func (s *Store) Scan(from, to int64, fn func(event.Event) bool) error {
	if !s.sealed {
		return ErrNotSealed
	}
	rows := int64(0)
	// Observed, a scan over several parts counts its rows into a split slot
	// per part, dropping the parts it did not touch before the emit.
	qp, b := s.sampling()
	var perPart []qprof.ShardSample
	if b != nil && len(s.parts) > 1 {
		perPart = slices.Grow(b.shards[:0], len(s.parts))[:len(s.parts)]
		for i := range perPart {
			perPart[i] = qprof.ShardSample{Shard: i}
		}
	}
	lo := sort.Search(s.total, func(i int) bool { return s.at(s.dir[i]).Time >= from })
	for i := lo; i < s.total; i++ {
		e := s.at(s.dir[i])
		if e.Time >= to {
			break
		}
		rows++
		if perPart != nil {
			perPart[s.dir[i]>>32].Rows++
		}
		if !fn(*e) {
			break
		}
	}
	s.charge(rows, from, to)
	if b != nil {
		b.shards = slices.DeleteFunc(perPart, func(ss qprof.ShardSample) bool { return ss.Rows == 0 })
		s.emit(qp, b, qprof.KindScan, rows, 0)
	}
	return nil
}

// RandomEvents returns n events sampled uniformly without replacement using
// rng. If the store holds fewer than n events, all of them are returned.
// Sampling is free (it is an experiment-harness convenience, not a modeled
// database operation).
func (s *Store) RandomEvents(n int, rng *rand.Rand) []event.Event {
	total := s.NumEvents()
	if n >= total {
		out := make([]event.Event, 0, total)
		for _, ref := range s.dir {
			out = append(out, *s.at(ref))
		}
		return out
	}
	// Bounded partial Fisher–Yates: reproduce the first n entries of
	// rng.Perm(len(events)) while allocating O(n) instead of O(len(events)).
	// Perm's inside-out shuffle only ever writes positions >= n by copying
	// (m[i] = m[j] with i >= n), while positions < n are always overwritten
	// with the literal loop index (m[j] = i, j <= i so j < n whenever the
	// copy read below position n). Tracking just the first n cells while
	// consuming the identical random stream therefore yields Perm(len)[:n]
	// bit-for-bit, so experiment event selection does not shift.
	sel := make([]int, n)
	for i := 0; i < total; i++ {
		j := rng.Intn(i + 1)
		switch {
		case i < n:
			sel[i] = sel[j]
			sel[j] = i
		case j < n:
			sel[j] = i
		}
	}
	out := make([]event.Event, 0, n)
	for _, i := range sel {
		out = append(out, s.EventAt(i))
	}
	return out
}

// EventAt returns the i-th event in time order. It is intended for tests and
// tooling; it does not charge query cost.
func (s *Store) EventAt(i int) event.Event { return *s.at(s.dir[i]) }

// Objects returns the full object table. The returned slice is owned by the
// store and must not be modified.
func (s *Store) Objects() []event.Object { return s.objects }

// InDegree returns the total number of events flowing into obj over the
// store's whole history, an explosion-severity signal used by tooling.
func (s *Store) InDegree(obj event.ObjID) int { return s.degree(obj, false) }

// OutDegree returns the total number of events flowing out of obj.
func (s *Store) OutDegree(obj event.ObjID) int { return s.degree(obj, true) }

func (s *Store) degree(obj event.ObjID, forward bool) (n int) {
	for _, p := range s.parts {
		n += p.post(forward).count(obj)
	}
	return n
}

// GlobalStart returns the default global starting time ts used by execution-
// window generation when a BDL script gives no explicit "from": the earliest
// event in the store.
func (s *Store) GlobalStart() int64 { return s.minTime }

// Duration returns the stored history span.
func (s *Store) Duration() time.Duration {
	if s.NumEvents() == 0 {
		return 0
	}
	return time.Duration(s.maxTime-s.minTime) * time.Second
}
