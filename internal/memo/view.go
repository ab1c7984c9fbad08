package memo

import (
	"sync/atomic"

	"aptrace/internal/event"
	"aptrace/internal/explain"
	"aptrace/internal/store"
)

// View is one run's binding of the shared cache to its store view: the
// executor evaluates where/prioritize clauses and tracking-chain matchers
// through it, so every computed-attribute evaluation consults the cache.
// View satisfies refiner.Env, so it drops in anywhere the executor used to
// pass the store.
//
// Hit or miss, the store is charged identically: a miss charges by actually
// executing the query, a hit replays the recorded charge through
// store.ChargeReplay. Each verdict is also emitted to the run's explain
// recorder (nil-safe), so EXPLAIN output stays complete under caching.
//
// A view belongs to one run and is used from one goroutine at a time, which
// is what lets its verdict table go without a lock.
type View struct {
	c     *Cache
	st    *store.Store
	sig   uint64
	fp    uint32
	gen   uint64 // the cache generation local was filled under
	local table
	// stripe counts the local hits for Stats; unpublished are the hits not
	// yet added to aptrace_memo_hits_total; shared counts the hits served
	// by the shared cache and samples LRU promotion.
	stripe      *atomic.Int64
	unpublished int64
	shared      uint32
	rec         *explain.Recorder
	stage       func(hit bool, what string, obj event.ObjID, from, to int64, rows int) bool
}

// Bind couples a sealed store (usually a per-run store.View) to the cache
// under a plan-filter fingerprint. rec may be nil. Binding a nil cache
// returns a nil view, which callers treat as "memo off".
func (c *Cache) Bind(st *store.Store, fp string, rec *explain.Recorder) (*View, error) {
	if c == nil {
		return nil, nil
	}
	sig, err := st.ContentSignature()
	if err != nil {
		return nil, err
	}
	id, err := c.intern(fp)
	if err != nil {
		return nil, err
	}
	return &View{
		c: c, st: st, fp: id, sig: sig, rec: rec,
		gen:    c.gen.Load(),
		stripe: &c.stripes[c.nextStripe.Add(1)&(numStripes-1)].hits,
	}, nil
}

// SetStage gives the view a way into its run's stage: every verdict is
// offered to stage first, and a verdict stage declines (returns false) goes
// to the recorder Bind was given, as without a stage.
func (v *View) SetStage(stage func(hit bool, what string, obj event.ObjID, from, to int64, rows int) bool) {
	v.stage = stage
}

// promoteEvery samples LRU promotion: a view's first shared hit promotes its
// entry, then every 16th after that.
const promoteEvery = 16

// publishEvery is how many hits a view gathers before it adds them to
// aptrace_memo_hits_total; Flush adds the rest.
const publishEvery = 64

// Flush adds the hits the view has not yet published to
// aptrace_memo_hits_total. The executor calls it when a run ends or swaps
// its view. Nil-safe.
func (v *View) Flush() {
	if v == nil || v.unpublished == 0 {
		return
	}
	v.c.telHits.Add(v.unpublished)
	v.unpublished = 0
}

// lookup serves the verdict of kind k for (obj, [from, to)) from the run's
// table or the shared cache, or computes, caches and returns it.
func (v *View) lookup(k kind, obj event.ObjID, from, to int64) (*entry, error) {
	if g := v.c.gen.Load(); g != v.gen {
		v.local.reset()
		v.gen = g
	}
	ck := key{sig: v.sig, from: from, to: to, obj: obj, fp: v.fp, kind: k}
	slot := v.local.find(&ck)
	e, ok := *slot, true
	if e != nil {
		v.stripe.Add(1)
	} else if e, ok = v.c.get(ck, v.shared%promoteEvery == 0); ok {
		v.shared++
		v.local.fill(slot, e)
	}
	if ok {
		if v.unpublished++; v.unpublished == publishEvery {
			v.Flush()
		}
		if err := v.st.ChargeReplay(e.charge, from, to); err != nil {
			return nil, err
		}
		v.verdict(true, k, obj, from, to, e.charge)
		return e, nil
	}
	e = &entry{}
	var err error
	switch k {
	case kindReadOnly:
		e.flag, e.charge, err = v.st.IsReadOnlyFileRows(obj, from, to)
	case kindWriteThrough:
		e.flag, e.charge, err = v.st.IsWriteThroughRows(obj, from, to)
	default:
		e.t1, e.t2, e.t3, e.charge, err = v.st.FileTimesRows(obj, from, to)
	}
	if err != nil {
		return nil, err
	}
	v.c.put(ck, e)
	v.local.fill(slot, e)
	v.verdict(false, k, obj, from, to, e.charge)
	return e, nil
}

func (v *View) verdict(hit bool, k kind, obj event.ObjID, from, to, rows int64) {
	if rows < 0 {
		rows = 0
	}
	if v.stage == nil || !v.stage(hit, kindNames[k], obj, from, to, int(rows)) {
		v.rec.MemoVerdict(hit, kindNames[k], obj, from, to, int(rows))
	}
}

// IsReadOnlyFile serves the cached verdict when present; see store.
func (v *View) IsReadOnlyFile(obj event.ObjID, from, to int64) (bool, error) {
	e, err := v.lookup(kindReadOnly, obj, from, to)
	if err != nil {
		return false, err
	}
	return e.flag, nil
}

// IsWriteThrough serves the cached verdict when present; see store.
func (v *View) IsWriteThrough(obj event.ObjID, from, to int64) (bool, error) {
	e, err := v.lookup(kindWriteThrough, obj, from, to)
	if err != nil {
		return false, err
	}
	return e.flag, nil
}

// FileTimes serves the cached file-time triple when present; see store.
func (v *View) FileTimes(obj event.ObjID, from, to int64) (creation, lastMod, lastAccess int64, err error) {
	e, err := v.lookup(kindFileTimes, obj, from, to)
	if err != nil {
		return 0, 0, 0, err
	}
	return e.t1, e.t2, e.t3, nil
}

// ObjectRef passes through to the store: object resolution is an uncharged
// in-memory table read and not worth caching.
func (v *View) ObjectRef(id event.ObjID) *event.Object { return v.st.ObjectRef(id) }

// AppendBackward passes through to the store: window closures are not
// cached.
func (v *View) AppendBackward(buf []event.Event, dst event.ObjID, from, to int64) ([]event.Event, error) {
	return v.st.AppendBackward(buf, dst, from, to)
}

// AppendForward passes through to the store, like AppendBackward.
func (v *View) AppendForward(buf []event.Event, src event.ObjID, from, to int64) ([]event.Event, error) {
	return v.st.AppendForward(buf, src, from, to)
}

// table is a view's run-local verdict table: the entries its run has read
// from the shared cache or put there, open-addressed on the key. It starts
// at 1<<minTableBits slots on the first lookup and doubles at half full; it
// never deletes an entry, only drops them all.
type table struct {
	slots []*entry
	shift uint // 64 - log2(len(slots)): the hash's top bits pick the slot
	n     int
}

const minTableBits = 6

// find returns k's slot: the one holding its entry, or the empty one an
// entry for k would take.
func (t *table) find(k *key) **entry {
	if t.slots == nil {
		t.alloc(minTableBits)
	}
	mask := uint64(len(t.slots) - 1)
	// Within a run sig and fp are constant, and so are from and to for a
	// plan without a time range: the object and the kind tell keys apart.
	h := (uint64(k.obj)<<2 | uint64(k.kind)) ^ uint64(k.from)*0xC2B2AE3D27D4EB4F ^ uint64(k.to)*0x165667B19E3779F9
	for i := (h * 0x9E3779B97F4A7C15) >> t.shift; ; i = (i + 1) & mask {
		if e := t.slots[i]; e == nil || e.key == *k {
			return &t.slots[i]
		}
	}
}

// fill stores e in the empty slot find returned for its key.
func (t *table) fill(slot **entry, e *entry) {
	*slot = e
	if t.n++; 2*t.n > len(t.slots) {
		old := t.slots
		t.alloc(64 - t.shift + 1)
		for _, o := range old {
			if o != nil {
				*t.find(&o.key) = o
				t.n++
			}
		}
	}
}

func (t *table) alloc(bits uint) {
	t.slots = make([]*entry, 1<<bits)
	t.shift = 64 - bits
	t.n = 0
}

// reset drops every entry, keeping the slots.
func (t *table) reset() {
	clear(t.slots)
	t.n = 0
}
