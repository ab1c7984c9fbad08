package memo

import (
	"fmt"

	"aptrace/internal/event"
	"aptrace/internal/explain"
	"aptrace/internal/obs"
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
// A view belongs to one run and is used from one goroutine at a time.
type View struct {
	c    *Cache
	st   *store.Store
	sig  uint64
	fp   uint32
	hits uint32 // this view's cache hits; samples LRU promotion
	rec  *explain.Recorder
	obs  *obs.Scope
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
	return &View{c: c, st: st, fp: id, sig: sig, rec: rec}, nil
}

// SetObs attaches a lifecycle-journal scope: every verdict then also
// journals a Debug "memo.hit"/"memo.miss" entry under the run's corr ID.
// Nil-safe on both sides; journaling reads only — charged cost and cache
// state are untouched.
func (v *View) SetObs(s *obs.Scope) {
	if v == nil {
		return
	}
	v.obs = s
}

// promoteEvery samples LRU promotion: a view's first hit promotes its entry,
// then every 16th after that.
const promoteEvery = 16

// lookup serves the verdict of kind k for (obj, [from, to)) from the cache,
// or computes, caches and returns it.
func (v *View) lookup(k kind, obj event.ObjID, from, to int64) (*entry, error) {
	ck := key{sig: v.sig, from: from, to: to, obj: obj, fp: v.fp, kind: k}
	if e, ok := v.c.get(ck, v.hits%promoteEvery == 0); ok {
		v.hits++
		if err := v.st.ChargeReplay(e.charge, from, to); err != nil {
			return nil, err
		}
		v.verdict(true, k, obj, from, to, e.charge)
		return e, nil
	}
	e := &entry{}
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
	v.verdict(false, k, obj, from, to, e.charge)
	return e, nil
}

func (v *View) verdict(hit bool, k kind, obj event.ObjID, from, to, rows int64) {
	if rows < 0 {
		rows = 0
	}
	v.rec.MemoVerdict(hit, kindNames[k], obj, from, to, int(rows))
	if v.obs.Enabled(obs.Debug) {
		stage := "memo.miss"
		if hit {
			stage = "memo.hit"
		}
		v.obs.Emit(obs.Debug, stage, fmt.Sprintf("%s obj=%d [%d,%d)", kindNames[k], obj, from, to), rows, 0)
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
