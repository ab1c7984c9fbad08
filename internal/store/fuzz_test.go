package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aptrace/internal/event"
)

// walPrefix is the fuzz oracle's own reading of a WAL image: the byte length
// of its longest prefix of whole, checksummed records, how many of those are
// events, and whether each of them is a record at all — a known type that
// decodes and, for an event, names interned objects. It shares the framing
// constants with the replayer and nothing else.
func walPrefix(wal []byte) (valid, events int, clean bool) {
	objects := map[event.ObjectKey]bool{}
	for {
		rest := wal[valid:]
		if len(rest) < 8 {
			return valid, events, true
		}
		n := int(binary.LittleEndian.Uint32(rest))
		if n == 0 || len(rest) < n+8 {
			return valid, events, true
		}
		payload := rest[4 : 4+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4+n:]) {
			return valid, events, true
		}
		switch payload[0] {
		case walObject:
			o, tail, err := event.DecodeObject(payload[1:])
			if err != nil || len(tail) != 0 {
				return valid, events, false
			}
			objects[o.Key()] = true
		case walEvent:
			e, err := event.DecodeEvent(payload[1:])
			if err != nil || int(e.Subject) >= len(objects) || int(e.Object) >= len(objects) {
				return valid, events, false
			}
			events++
		default:
			return valid, events, false
		}
		valid += n + 8
	}
}

// FuzzReplayWAL hands OpenLive arbitrary bytes as its write-ahead log. It
// must never panic; it must recover exactly the longest prefix of whole
// checksummed records (or name the checksummed record that is not one); and
// what is appended after the recovery must itself be recovered by the next —
// a torn tail may not stay in the file for new records to hide behind.
func FuzzReplayWAL(f *testing.F) {
	// The logs the live-store tests write: two appends (TestLiveRecoveryFromWAL),
	// the same with its tail torn (TestLiveTornTailDiscarded) and with a byte
	// of the final checksum flipped (TestLiveCorruptTailDiscarded).
	dir := f.TempDir()
	l, err := OpenLive(dir, nil)
	if err != nil {
		f.Fatal(err)
	}
	for i, path := range []string{"/a", "/b", "/c"} {
		if _, err := l.Append(int64(100*(i+1)), event.Process("h", "svc", 1, 10), event.File("h", path), event.ActWrite, event.FlowOut, 64); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	whole, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)
	f.Add(whole[:len(whole)-5])
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-2] ^= 0xFF
	f.Add(flipped)
	valid, _, _ := walPrefix(whole)
	for cut := 0; cut < valid; cut += 7 {
		f.Add(whole[:cut]) // torn at and between record boundaries
	}
	f.Add([]byte{})
	f.Add([]byte("not a log at all"))
	f.Add(append(append([]byte(nil), whole...), whole...)) // every record twice: duplicate objects and event IDs

	f.Fuzz(func(t *testing.T, wal []byte) { recoverWAL(t, wal) })
}

// recoverWAL opens a live store on the given WAL image and holds the
// recovery to its contract: never a panic; a checksummed record that is no
// record is a named error; otherwise exactly the events of the longest prefix
// of whole records come back, what is appended next extends that prefix in the
// file — a torn tail may not stay for new records to hide behind — and the
// next recovery finds it. It returns the recovered events in order (nil when
// OpenLive refused the log).
func recoverWAL(t *testing.T, wal []byte) []event.Event {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, walFile)
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	valid, events, clean := walPrefix(wal)
	l, err := OpenLive(dir, nil)
	if !clean {
		if err == nil {
			t.Fatalf("OpenLive accepted a log whose checksummed record at byte %d is not a record", valid)
		}
		if !strings.HasPrefix(err.Error(), "store: ") {
			t.Fatalf("unnamed error: %v", err)
		}
		return nil
	}
	if err != nil {
		t.Fatalf("OpenLive: %v (the log's valid prefix is %d bytes, %d events)", err, valid, events)
	}
	if got := l.PendingEvents(); got != events {
		t.Fatalf("recovered %d events, the valid prefix holds %d", got, events)
	}
	var recovered []event.Event
	if events > 0 {
		snap, err := l.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := snap.Scan(0, 1<<62, func(e event.Event) bool { recovered = append(recovered, e); return true }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Append(7, event.Process("fz", "fuzz.exe", 7, 7), event.File("fz", "/fuzz"), event.ActWrite, event.FlowOut, 7); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, wal[:valid]) || len(after) <= valid {
		t.Fatalf("the log after recovery and one append is %d bytes and does not extend the %d-byte valid prefix", len(after), valid)
	}
	if v, n, ok := walPrefix(after); v != len(after) || n != events+1 || !ok {
		t.Fatalf("the log after recovery and one append: %d of %d bytes valid, %d events, want all and %d", v, len(after), n, events+1)
	}
	l, err = OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.PendingEvents(); got != events+1 {
		t.Fatalf("second recovery found %d events, want the %d of the first and the one appended", got, events)
	}
	return recovered
}

// TestWALEveryTruncationAndBitFlip is the fuzzer's adversary made exhaustive
// on a small log: a WAL of three synced batches, cut at every byte offset and
// with one bit flipped at every byte offset. Each damaged log must recover
// (recoverWAL's contract) exactly the events that were appended before the
// damage — compared against the list this test appended, not against the
// oracle's own reading of the bytes — and nothing after it.
func TestWALEveryTruncationAndBitFlip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	type appended struct {
		time int64
		end  int // the log's length once the event's record was written
	}
	var want []appended
	walPath := filepath.Join(dir, walFile)
	for batch := 0; batch < 3; batch++ {
		for i := 0; i < 2; i++ {
			tm := int64(100*batch + 10*i + 1)
			liveAppend(t, l, tm, "svc", string(rune('a'+batch))+"/"+string(rune('x'+i))) // a new object per event: object records sit between
			st, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, appended{tm, int(st.Size())})
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != want[len(want)-1].end {
		t.Fatalf("the log is %d bytes, the last record ended at %d", len(whole), want[len(want)-1].end)
	}
	// check recovers image, whose first intact bytes are whole[:intact].
	check := func(what string, image []byte, intact int) {
		t.Helper()
		got := recoverWAL(t, image)
		n := 0
		for n < len(want) && want[n].end <= intact {
			n++
		}
		if len(got) != n {
			t.Fatalf("%s: recovered %d events, %d were whole before the damage", what, len(got), n)
		}
		for i, e := range got {
			if e.Time != want[i].time {
				t.Fatalf("%s: event %d recovered with time %d, appended with %d", what, i, e.Time, want[i].time)
			}
		}
	}
	for cut := 0; cut <= len(whole); cut++ {
		check(fmt.Sprintf("cut at byte %d", cut), whole[:cut], cut)
	}
	for at := range whole {
		flipped := append([]byte(nil), whole...)
		flipped[at] ^= 1 << (at % 8)
		// The record holding the flipped bit fails its checksum (or its
		// framing): what was whole before byte at is what ended before it.
		check(fmt.Sprintf("bit flipped at byte %d", at), flipped, at)
	}
}

// reframe gives a fuzzed store file a good checksum, so that mutations of its
// header and records reach the loader's checks behind the CRC.
func reframe(file []byte) []byte {
	if len(file) < 4 {
		return file
	}
	body := file[:len(file)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// FuzzLoadSegment opens a store directory made of a fuzzed manifest, object
// table and segment file. A corrupt file must be a named error — never a
// panic, never a store that opens short of what its manifest and segments
// say it holds.
func FuzzLoadSegment(f *testing.F) {
	// The directories the segment tests write and read back: the parent
	// commit's layouts under testdata, and a store saved here.
	seed := func(dir string) {
		var files [3][]byte
		for i, name := range []string{manifestFile, objectsFile, "seg-00000.dat"} {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				f.Fatal(err)
			}
			files[i] = raw
		}
		f.Add(files[0], files[1], files[2], false)
		f.Add(files[0], files[1], files[2], true)
		f.Add(files[0], files[1], files[2][:len(files[2])-9], false)
		f.Add(files[0], files[1][:len(files[1])/2], files[2], true)
		f.Add([]byte(strings.Replace(string(files[0]), `"bucket_seconds": 3600`, `"bucket_seconds": 0`, 1)), files[1], files[2], false)
		f.Add([]byte(strings.Replace(string(files[0]), `"events": `, `"events": -`, 1)), files[1], files[2], false)
		f.Add([]byte(strings.Replace(string(files[0]), `"events": `, `"events": 9999999999`, 1)), files[1], files[2], false)
	}
	seed(filepath.Join("testdata", "parent-flat"))
	seed(filepath.Join("testdata", "parent-shards4"))
	s := New(nil)
	for i := 0; i < 20; i++ {
		if _, err := s.AddEvent(int64(1000+50*i), event.Process("h", "p.exe", int32(i%3), 1), event.File("h", "/f"+string(rune('a'+i%5))), event.ActWrite, event.FlowOut, 1); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		f.Fatal(err)
	}
	saved := f.TempDir()
	if err := s.Save(saved); err != nil {
		f.Fatal(err)
	}
	seed(saved)

	f.Fuzz(func(t *testing.T, manJSON, objects, segment []byte, framed bool) {
		if framed {
			objects, segment = reframe(objects), reframe(segment)
		}
		dir := t.TempDir()
		for name, data := range map[string][]byte{manifestFile: manJSON, objectsFile: objects, "seg-00000.dat": segment} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, err := Open(dir, nil)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "store: ") {
				t.Fatalf("unnamed error: %v", err)
			}
			return
		}
		// It opened: then it holds what the manifest promises, which is what
		// the segment file holds, once per manifest entry naming it.
		var man manifest
		if err := json.Unmarshal(manJSON, &man); err != nil {
			t.Fatalf("Open read a manifest encoding/json does not: %v", err)
		}
		records := 0
		for _, seg := range man.Segments {
			if filepath.Clean(seg.File) != "seg-00000.dat" {
				t.Fatalf("Open read segment %q, which does not exist", seg.File)
			}
			records += (len(segment) - 20) / event.EventEncodedSize
		}
		if st.NumEvents() != man.Events || st.NumEvents() != records || !st.Sealed() {
			t.Fatalf("opened with %d events (sealed %v): manifest says %d, segments hold %d", st.NumEvents(), st.Sealed(), man.Events, records)
		}
		n := 0
		if err := st.Scan(-1<<63, 1<<63-1, func(event.Event) bool { n++; return true }); err != nil || n != records {
			t.Fatalf("scan of the opened store: %d of %d events, %v", n, records, err)
		}
	})
}
