package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"aptrace/internal/event"
)

func liveAppend(t *testing.T, l *Live, tm int64, subExe string, path string) event.EventID {
	t.Helper()
	id, err := l.Append(tm,
		event.Process("h", subExe, 1, 10),
		event.File("h", path),
		event.ActWrite, event.FlowOut, 64)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestLiveAppendAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	id1 := liveAppend(t, l, 100, "svc", "/a")
	id2 := liveAppend(t, l, 200, "svc", "/b")
	if id1 == id2 {
		t.Fatal("event IDs must be unique")
	}
	if l.PendingEvents() != 2 || l.BaseEvents() != 0 {
		t.Fatalf("pending=%d base=%d", l.PendingEvents(), l.BaseEvents())
	}

	snap, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumEvents() != 2 {
		t.Fatalf("snapshot has %d events", snap.NumEvents())
	}
	fa, ok := snap.Lookup(event.File("h", "/a"))
	if !ok {
		t.Fatal("object missing from snapshot")
	}
	got, err := snap.AppendBackward(nil, fa, 0, 1000)
	if err != nil || len(got) != 1 || got[0].ID != id1 {
		t.Fatalf("snapshot query: %v %v", got, err)
	}

	// The snapshot is independent: further appends do not affect it.
	liveAppend(t, l, 300, "svc", "/c")
	if snap.NumEvents() != 2 {
		t.Fatal("snapshot must be immutable")
	}
}

func TestLiveRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	liveAppend(t, l, 100, "svc", "/a")
	liveAppend(t, l, 200, "cron", "/b")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the WAL replays both events and their objects.
	l2, err := OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.PendingEvents() != 2 {
		t.Fatalf("recovered %d events, want 2", l2.PendingEvents())
	}
	snap, _ := l2.Snapshot()
	if _, ok := snap.Lookup(event.Process("h", "cron", 1, 10)); !ok {
		t.Fatal("interned object lost across recovery")
	}
	// IDs continue from where they left off.
	id := liveAppend(t, l2, 300, "svc", "/c")
	if id != 3 {
		t.Fatalf("next id = %d, want 3", id)
	}
}

func TestLiveTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	liveAppend(t, l, 100, "svc", "/a")
	liveAppend(t, l, 200, "svc", "/b")
	l.Close()

	// Simulate a crash mid-append: chop bytes off the WAL tail.
	walPath := filepath.Join(dir, walFile)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// The second event's record was torn; the first survives.
	if l2.PendingEvents() != 1 {
		t.Fatalf("recovered %d events after torn tail, want 1", l2.PendingEvents())
	}
	// The store keeps working after recovery.
	liveAppend(t, l2, 300, "svc", "/c")
	if l2.PendingEvents() != 2 {
		t.Fatal("append after torn-tail recovery failed")
	}
	// And what it appended is durable: the torn tail was cut off the log, so
	// the next recovery reads past where it was.
	l2.Close()
	l3, err := OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if l3.PendingEvents() != 2 {
		t.Fatalf("recovered %d events after a torn tail and one more append, want 2", l3.PendingEvents())
	}
}

func TestLiveCorruptTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	l, _ := OpenLive(dir, nil)
	liveAppend(t, l, 100, "svc", "/a")
	liveAppend(t, l, 200, "svc", "/b")
	l.Close()

	walPath := filepath.Join(dir, walFile)
	raw, _ := os.ReadFile(walPath)
	bad := append([]byte(nil), raw...)
	bad[len(bad)-2] ^= 0xFF // flip a byte inside the final record's checksum
	os.WriteFile(walPath, bad, 0o644)

	l2, err := OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.PendingEvents() >= 2 {
		t.Fatalf("corrupt record not discarded: %d pending", l2.PendingEvents())
	}
}

func TestLiveCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		liveAppend(t, l, 100+i, "svc", "/f")
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if l.PendingEvents() != 0 || l.BaseEvents() != 20 {
		t.Fatalf("after checkpoint: pending=%d base=%d", l.PendingEvents(), l.BaseEvents())
	}
	// The WAL is empty now.
	if fi, err := os.Stat(filepath.Join(dir, walFile)); err != nil || fi.Size() != 0 {
		t.Fatalf("wal not truncated: %v %v", fi, err)
	}
	// Post-checkpoint appends extend from the persisted base.
	id := liveAppend(t, l, 500, "svc", "/g")
	if id != 21 {
		t.Fatalf("post-checkpoint id = %d, want 21", id)
	}
	l.Close()

	// Reopen: base segments load, tail replays.
	l2, err := OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.BaseEvents() != 20 || l2.PendingEvents() != 1 {
		t.Fatalf("reopen: base=%d pending=%d", l2.BaseEvents(), l2.PendingEvents())
	}
	snap, _ := l2.Snapshot()
	if snap.NumEvents() != 21 {
		t.Fatalf("snapshot after reopen: %d events", snap.NumEvents())
	}
}

func TestLiveOnExistingStore(t *testing.T) {
	// A store persisted by Save can be continued live.
	dir := t.TempDir()
	s := buildRandom(t, 300, 9)
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.BaseEvents() != 300 {
		t.Fatalf("base = %d", l.BaseEvents())
	}
	id := liveAppend(t, l, 2_000_000, "svc", "/new")
	if id != 301 {
		t.Fatalf("id = %d, want 301", id)
	}
	snap, _ := l.Snapshot()
	if snap.NumEvents() != 301 {
		t.Fatalf("snapshot = %d", snap.NumEvents())
	}
	// The new event is queryable and in time order (it is the latest).
	min, max, _ := snap.TimeRange()
	if max != 2_000_000 || min == max {
		t.Fatalf("time range [%d,%d]", min, max)
	}
}

func TestLiveErrors(t *testing.T) {
	dir := t.TempDir()
	l, _ := OpenLive(dir, nil)
	if _, err := l.Append(1, event.File("h", "/x"), event.File("h", "/y"), event.ActWrite, event.FlowOut, 0); err == nil {
		t.Fatal("non-process subject must be rejected")
	}
	l.Close()
	if _, err := l.Append(1, event.Process("h", "p", 1, 1), event.File("h", "/y"), event.ActWrite, event.FlowOut, 0); err == nil {
		t.Fatal("append after close must fail")
	}
	if err := l.Checkpoint(); err == nil {
		t.Fatal("checkpoint after close must fail")
	}
	if err := l.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
}

func TestLiveSnapshotDrivesAnalysis(t *testing.T) {
	// The live-store contract end to end: stream events in, snapshot,
	// run a backward query chain over the snapshot.
	dir := t.TempDir()
	l, err := OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mal := event.Process("h", "mal", 7, 50)
	drop := event.Process("h", "drop", 8, 10)
	payload := event.File("h", "/tmp/p")
	if _, err := l.Append(100, drop, payload, event.ActWrite, event.FlowOut, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(200, mal, payload, event.ActRead, event.FlowIn, 10); err != nil {
		t.Fatal(err)
	}
	snap, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	malID, _ := snap.Lookup(mal)
	deps, err := snap.AppendBackward(nil, malID, 0, 1000)
	if err != nil || len(deps) != 1 {
		t.Fatalf("deps of mal = %v, %v", deps, err)
	}
	pid, _ := snap.Lookup(payload)
	deps2, _ := snap.AppendBackward(nil, pid, 0, deps[0].Time)
	if len(deps2) != 1 || deps2[0].Subject != snapLookup(t, snap, drop) {
		t.Fatalf("deps of payload = %v", deps2)
	}
}

func snapLookup(t *testing.T, s *Store, o event.Object) event.ObjID {
	t.Helper()
	id, ok := s.Lookup(o)
	if !ok {
		t.Fatalf("object %v missing", o.Key())
	}
	return id
}

// walRecords is n events over a few processes, files and sockets, some new
// to the store and some seen before, not in time order.
func walRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		obj := event.File("h", fmt.Sprintf("/f%d", i%7))
		if i%5 == 0 {
			obj = event.Socket("h", "10.0.0.1", uint16(i), "10.0.0.2", 443)
		}
		recs[i] = Record{
			Time: int64(1000 + 37*i%23), Action: event.ActWrite, Dir: event.FlowOut, Amount: int64(i),
			Subject: event.Process("h", fmt.Sprintf("p%d", i%3), int32(i%3), 10),
			Object:  obj,
		}
	}
	return recs
}

// perRecordWAL frames recs as the log has always held them, one record at a
// time: [len u32][type, payload][crc u32], a new object's record ahead of the
// event that first references it, the subject's ahead of the object's.
func perRecordWAL(recs []Record) []byte {
	var out []byte
	frame := func(payload []byte) {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		out = append(out, payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	}
	ids := map[event.ObjectKey]event.ObjID{}
	intern := func(o event.Object) event.ObjID {
		id, ok := ids[o.Key()]
		if !ok {
			id = event.ObjID(len(ids))
			ids[o.Key()] = id
			frame(append([]byte{walObject}, event.AppendObject(nil, o)...))
		}
		return id
	}
	for i, r := range recs {
		sub := intern(r.Subject)
		obj := intern(r.Object)
		e := event.Event{ID: event.EventID(i + 1), Time: r.Time, Subject: sub, Object: obj, Action: r.Action, Dir: r.Dir, Amount: r.Amount}
		frame(append([]byte{walEvent}, event.AppendEvent(nil, e)...))
	}
	return out
}

// TestLiveCommitWALMatchesAppends: one chunk commit writes the bytes one
// Append per record writes, and both are the per-record framing the log has
// always had, so the log format, and replay, are unchanged.
func TestLiveCommitWALMatchesAppends(t *testing.T) {
	recs := walRecords(40)
	one, many := t.TempDir(), t.TempDir()
	l1, err := OpenLive(one, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first, err := l1.Commit(recs); err != nil || first != 1 {
		t.Fatalf("commit = %d, %v", first, err)
	}
	l1.Close()
	l2, err := OpenLive(many, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if id, err := l2.Append(r.Time, r.Subject, r.Object, r.Action, r.Dir, r.Amount); err != nil || id != event.EventID(i+1) {
			t.Fatalf("append %d = %d, %v", i, id, err)
		}
	}
	l2.Close()
	a, _ := os.ReadFile(filepath.Join(one, walFile))
	b, _ := os.ReadFile(filepath.Join(many, walFile))
	want := perRecordWAL(recs)
	if !bytes.Equal(a, want) || !bytes.Equal(b, want) {
		t.Fatalf("chunk commit wrote %d WAL bytes, appends %d, want the per-record framing's %d, byte for byte", len(a), len(b), len(want))
	}
	l3, err := OpenLive(one, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if l3.PendingEvents() != len(recs) {
		t.Fatalf("replayed %d events, want %d", l3.PendingEvents(), len(recs))
	}
}

// TestLiveTornChunkRecoversWholeRecords tears the WAL at every point inside
// one chunk's write: reopening recovers exactly the records whole before
// the tear, objects and events, and cuts the log back to them.
func TestLiveTornChunkRecoversWholeRecords(t *testing.T) {
	src := t.TempDir()
	l, err := OpenLive(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	liveAppend(t, l, 100, "svc", "/a")
	fi, err := os.Stat(filepath.Join(src, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit(walRecords(12)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	raw, _ := os.ReadFile(filepath.Join(src, walFile))

	// ends[k] is where the k-th frame ends; objects[k], events[k] count the
	// frames of each kind up to it.
	ends, objects, events := []int{0}, []int{0}, []int{0}
	for off := 0; off < len(raw); {
		rec, n, ok := readWALRecord(raw[off:])
		if !ok {
			t.Fatalf("intact WAL unreadable at byte %d", off)
		}
		off += n
		k := len(ends) - 1
		o, e := objects[k], events[k]
		if rec[0] == walObject {
			o++
		} else {
			e++
		}
		ends, objects, events = append(ends, off), append(objects, o), append(events, e)
	}
	for cut := int(fi.Size()) + 1; cut < len(raw); cut++ {
		k := 0
		for k+1 < len(ends) && ends[k+1] <= cut {
			k++
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLive(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if l.w.NumObjects() != objects[k] || l.PendingEvents() != events[k] {
			t.Fatalf("tear at byte %d: recovered %d objects, %d events; want %d, %d",
				cut, l.w.NumObjects(), l.PendingEvents(), objects[k], events[k])
		}
		l.Close()
		if fi, err := os.Stat(filepath.Join(dir, walFile)); err != nil || fi.Size() != int64(ends[k]) {
			t.Fatalf("tear at byte %d: WAL left at %v bytes, want %d (%v)", cut, fi.Size(), ends[k], err)
		}
	}
}

// TestLiveFailedCommitSticks fails a chunk's WAL write: the write side
// keeps neither its objects nor its events, every later commit fails too —
// even once the log would take writes again — and a snapshot still serves
// what was committed, as does the reopened store.
func TestLiveFailedCommitSticks(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	liveAppend(t, l, 100, "svc", "/a")
	before, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	objects, events := l.w.NumObjects(), l.w.NumEvents()

	// A read-only handle on the log stands in for a failing disk.
	good := l.wal
	ro, err := os.Open(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	l.wal = ro
	recs := walRecords(8)
	if _, err := l.Commit(recs); err == nil {
		t.Fatal("commit on a failing WAL must fail")
	}
	if l.w.NumObjects() != objects || l.w.NumEvents() != events {
		t.Fatalf("failed commit left %d objects, %d events; want %d, %d",
			l.w.NumObjects(), l.w.NumEvents(), objects, events)
	}
	l.wal = good
	ro.Close()
	if _, err := l.Commit(recs); err == nil {
		t.Fatal("commit after a failed WAL write must fail")
	}
	if _, err := l.Append(200, event.Process("h", "svc", 1, 10), event.File("h", "/b"), event.ActWrite, event.FlowOut, 1); err == nil {
		t.Fatal("append after a failed WAL write must fail")
	}
	snap, err := l.Snapshot()
	if err != nil || snap != before {
		t.Fatalf("snapshot after failed commits = %p, %v; want the one before (%p)", snap, err, before)
	}
	if _, ok := snap.Lookup(recs[0].Subject); ok {
		t.Fatal("an object of the failed commit is visible")
	}
	l.Close()
	l2, err := OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.PendingEvents() != events {
		t.Fatalf("reopen recovered %d events, want %d", l2.PendingEvents(), events)
	}
}
