package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"aptrace/internal/event"
	"aptrace/internal/simclock"
	"aptrace/internal/telemetry"
)

// Live is the continuously collecting form of the store: the deployment mode
// of the paper's system, where agents stream audit events in all day while
// analysts investigate.
//
// Architecture: an immutable persisted base (segment files, as written by
// (*Store).Save) plus newly appended events, made durable by a write-ahead
// log. In memory both live in one unsealed store, the write side, into whose
// parts every event is routed once, on arrival. Analysts never query the
// live store directly; they take a Snapshot — a consistent, sealed,
// query-ready store — so investigations and collection proceed
// independently. Checkpoint rewrites the base segments to include the
// appended events and truncates the WAL.
//
// Recovery: on OpenLive the WAL is replayed; a torn final record (crash mid
// append) is detected by its checksum and discarded, everything before it is
// recovered — standard write-ahead semantics.
type Live struct {
	mu  sync.Mutex
	dir string
	clk simclock.Clock
	// w is the write side: never sealed, never queried. base counts its
	// events that the segment files already hold.
	w    *Store
	base int
	// snap is the last snapshot taken, the one the next extends.
	snap *Store
	wal  *os.File
	// walBuf and events reuse one commit's WAL bytes and events across
	// commits. walErr is the first failed WAL write; it fails every commit
	// after it.
	walBuf []byte
	events []event.Event
	walErr error
	closed bool

	walAppends *telemetry.Counter
	walFsyncs  *telemetry.Counter
}

const walFile = "wal.log"

// WAL record types.
const (
	walObject byte = 'O'
	walEvent  byte = 'E'
)

// OpenLive opens (or initializes) a live store in dir. If dir contains a
// persisted base store it is loaded; otherwise the base starts empty. Any
// WAL present is replayed on top of it. Options (bucket width, cost model,
// telemetry, shard layout) apply to every snapshot taken.
func OpenLive(dir string, clk simclock.Clock, opts ...Option) (*Live, error) {
	if clk == nil {
		clk = simclock.Real{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: live: %w", err)
	}

	var w *Store
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); err == nil {
		w, err = load(dir, clk, opts...)
		if err != nil {
			return nil, fmt.Errorf("store: live: load base: %w", err)
		}
	} else {
		w = New(clk, opts...)
	}

	l := &Live{
		dir:        dir,
		clk:        clk,
		w:          w,
		base:       w.NumEvents(),
		walAppends: w.reg.Counter(telemetry.MetricWALAppends),
		walFsyncs:  w.reg.Counter(telemetry.MetricWALFsyncs),
	}
	if err := l.replayWAL(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: live: open wal: %w", err)
	}
	l.wal = wal
	return l, nil
}

// replayWAL loads surviving records from the WAL into the write side. It stops
// silently at the first corrupt or truncated record: that is the torn tail
// of a crashed append, and it is cut off the file — records appended behind
// it would be out of the next replay's reach.
func (l *Live) replayWAL() error {
	path := filepath.Join(l.dir, walFile)
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: live: read wal: %w", err)
	}
	off := 0
	for off < len(raw) {
		rec, n, ok := readWALRecord(raw[off:])
		if !ok {
			break // torn tail
		}
		off += n
		switch rec[0] {
		case walObject:
			o, rest, err := event.DecodeObject(rec[1:])
			if err != nil || len(rest) != 0 {
				return fmt.Errorf("store: live: wal object corrupt (checksum valid): %v", err)
			}
			l.w.Intern(o)
		case walEvent:
			e, err := event.DecodeEvent(rec[1:])
			if err != nil {
				return fmt.Errorf("store: live: wal event corrupt (checksum valid): %v", err)
			}
			if err := l.w.addRaw(e); err != nil {
				return fmt.Errorf("store: live: wal: %w", err)
			}
		default:
			return fmt.Errorf("store: live: unknown wal record type %q", rec[0])
		}
	}
	if off < len(raw) {
		if err := os.Truncate(path, int64(off)); err != nil {
			return fmt.Errorf("store: live: drop torn wal tail: %w", err)
		}
	}
	return nil
}

// frameWAL closes the record that buf holds from start on, where four
// bytes were reserved for its length ahead of the payload:
// [len u32][payload][crc u32].
func frameWAL(buf []byte, start int) []byte {
	payload := buf[start+4:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// readWALRecord parses one framed record; ok=false on truncation/corruption.
func readWALRecord(buf []byte) (payload []byte, consumed int, ok bool) {
	if len(buf) < 8 {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(buf)
	total := 4 + int(n) + 4
	if n == 0 || len(buf) < total {
		return nil, 0, false
	}
	payload = buf[4 : 4+n]
	sum := binary.LittleEndian.Uint32(buf[4+n:])
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, false
	}
	return payload, total, true
}

// Record is one event to append to a live store, its objects by value.
type Record struct {
	Time    int64
	Action  event.Action
	Dir     event.Direction
	Amount  int64
	Subject event.Object // must be a process
	Object  event.Object
}

// Append durably records one event and adds it to the write side: Commit of
// one record.
func (l *Live) Append(t int64, subject, object event.Object, action event.Action, dir event.Direction, amount int64) (event.EventID, error) {
	return l.Commit([]Record{{Time: t, Action: action, Dir: dir, Amount: amount, Subject: subject, Object: object}})
}

// Commit durably appends recs in order, under one lock and with one WAL
// write, and returns the first one's event ID; the rest follow it. Objects
// new to the store are interned and logged ahead of the first event that
// references them, so the log holds the bytes one Append per record would
// write. Nothing of recs reaches the write side, and so a Snapshot, before
// its bytes are written. A failed write leaves the write side as it was and
// sticks: every later Commit returns it, so no record lands in the log
// behind a torn one, where replay would not reach it.
func (l *Live) Commit(recs []Record) (event.EventID, error) {
	for _, r := range recs {
		if r.Subject.Type != event.ObjProcess {
			return 0, fmt.Errorf("store: live: event subject must be a process, got %v", r.Subject.Type)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("store: live: closed")
	}
	if l.walErr != nil {
		return 0, l.walErr
	}
	w, objects := l.w, l.w.NumObjects()
	first := event.EventID(w.NumEvents() + 1)
	l.walBuf, l.events = l.walBuf[:0], l.events[:0]
	for _, r := range recs {
		sub := l.logObject(r.Subject)
		obj := l.logObject(r.Object)
		e := event.Event{ID: first + event.EventID(len(l.events)), Time: r.Time, Subject: sub, Object: obj, Action: r.Action, Dir: r.Dir, Amount: r.Amount}
		start := len(l.walBuf)
		l.walBuf = frameWAL(event.AppendEvent(append(l.walBuf, 0, 0, 0, 0, walEvent), e), start)
		l.events = append(l.events, e)
	}
	if _, err := l.wal.Write(l.walBuf); err != nil {
		byKey := w.byKey() // un-intern the objects that never became durable
		for _, o := range w.objects[objects:] {
			delete(byKey, o.Key())
		}
		w.objects = w.objects[:objects]
		l.walErr = fmt.Errorf("store: live: wal append: %w", err)
		return 0, l.walErr
	}
	l.walAppends.Add(int64(len(l.events) + w.NumObjects() - objects))
	for _, e := range l.events {
		if err := w.addRaw(e); err != nil {
			return 0, err
		}
	}
	return first, nil
}

// logObject resolves o on the write side — one key and, for a known object,
// one probe — and frames its WAL record into walBuf when it is new, which
// Intern tells by handing it the next ID.
func (l *Live) logObject(o event.Object) event.ObjID {
	n := l.w.NumObjects()
	id := l.w.Intern(o)
	if int(id) == n {
		start := len(l.walBuf)
		l.walBuf = frameWAL(event.AppendObject(append(l.walBuf, 0, 0, 0, 0, walObject), o), start)
	}
	return id
}

// Sync flushes the WAL to stable storage.
func (l *Live) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		return nil
	}
	err := l.wal.Sync()
	if err == nil {
		l.walFsyncs.Inc()
	}
	return err
}

// BaseEvents returns the number of events in the persisted base.
func (l *Live) BaseEvents() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// PendingEvents returns the number of appended events not yet checkpointed.
func (l *Live) PendingEvents() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.NumEvents() - l.base
}

// Telemetry returns the registry attached to the store (nil if none).
func (l *Live) Telemetry() *telemetry.Registry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.reg
}

// Snapshot produces a sealed, query-ready store holding the base plus every
// appended event at this instant. The snapshot is independent: collection
// may continue while analyses run against it, and no later append or
// snapshot changes a byte it reads. A snapshot costs its tail — it shares
// the events, objects, directory and posting arenas of the one before it
// and writes only what arrived since — and with nothing appended since the
// last call it is that same store.
func (l *Live) Snapshot() (*Store, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked()
}

// snapshotLocked extends the last snapshot by what the write side gained
// since (see extend). The snapshot aliases the write side's event logs and
// object table by prefix: the write side only ever appends past what a
// snapshot reads, or moves a log to a fresh array when a late arrival must
// be sorted in among events a snapshot already holds. The write side's
// parts keep where each posting list's reserved slots end in this
// snapshot's arenas, for the next reseal.
func (l *Live) snapshotLocked() (*Store, error) {
	w, prev := l.w, l.snap
	if prev != nil && prev.total == w.total && len(prev.objects) == len(w.objects) {
		return prev, nil
	}
	snap := New(l.clk, WithTelemetry(w.reg))
	snap.bucketSeconds, snap.cost = w.bucketSeconds, w.cost
	if err := snap.configureShards(len(w.parts), w.shardEpoch); err != nil {
		return nil, err
	}
	snap.objects = w.objects[:len(w.objects):len(w.objects)]
	snap.extend(prev, w)
	l.snap = snap
	return snap, nil
}

// Checkpoint folds the appended events into the persisted base (rewriting
// segment files) and truncates the WAL. After a successful checkpoint
// nothing is pending and recovery no longer needs the log.
func (l *Live) Checkpoint() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("store: live: closed")
	}
	snap, err := l.snapshotLocked()
	if err != nil {
		return err
	}
	if err := snap.Save(l.dir); err != nil {
		return err
	}
	// Truncate the WAL only after the segments are durably renamed.
	if err := l.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: live: truncate wal: %w", err)
	}
	if _, err := l.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: live: rewind wal: %w", err)
	}
	l.base = snap.NumEvents()
	return nil
}

// Close syncs and closes the WAL. The live store must not be used after.
func (l *Live) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.wal.Sync(); err != nil {
		l.wal.Close()
		return err
	}
	l.walFsyncs.Inc()
	return l.wal.Close()
}
