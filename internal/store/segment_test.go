package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aptrace/internal/event"
)

func buildRandom(t testing.TB, n int, seed int64, opts ...Option) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := New(nil, opts...)
	procs := make([]event.Object, 10)
	for i := range procs {
		procs[i] = event.Process("host", "proc", int32(i), int64(i))
	}
	for i := 0; i < n; i++ {
		var obj event.Object
		switch rng.Intn(3) {
		case 0:
			obj = procs[rng.Intn(len(procs))]
		case 1:
			obj = event.File("host", "/data/f"+string(rune('0'+rng.Intn(10))))
		case 2:
			obj = event.Socket("host", "10.0.0.1", uint16(rng.Intn(4)+1000), "9.9.9.9", 443)
		}
		sub := procs[rng.Intn(len(procs))]
		act := []event.Action{event.ActRead, event.ActWrite, event.ActSend, event.ActStart}[rng.Intn(4)]
		if _, err := s.AddEvent(rng.Int63n(1_000_000), sub, obj, act, act.DefaultDirection(), rng.Int63n(1<<20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSaveOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := buildRandom(t, 5000, 7)
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}

	// Multiple segments must have been written (span is 1 day = 86400s,
	// times go up to 1e6 s => at least 11 segments).
	matches, _ := filepath.Glob(filepath.Join(dir, "seg-*.dat"))
	if len(matches) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(matches))
	}

	got, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEvents() != s.NumEvents() || got.NumObjects() != s.NumObjects() {
		t.Fatalf("reloaded %d events %d objects, want %d %d",
			got.NumEvents(), got.NumObjects(), s.NumEvents(), s.NumObjects())
	}
	for i := 0; i < s.NumEvents(); i++ {
		if s.EventAt(i) != got.EventAt(i) {
			t.Fatalf("event %d differs: %+v vs %+v", i, s.EventAt(i), got.EventAt(i))
		}
	}
	for i, o := range s.Objects() {
		if got.Objects()[i] != o {
			t.Fatalf("object %d differs", i)
		}
	}
	// Object keys must resolve to the same IDs.
	for _, o := range s.Objects() {
		a, _ := s.Lookup(o)
		b, ok := got.Lookup(o)
		if !ok || a != b {
			t.Fatalf("lookup mismatch for %v: %d vs %d (%v)", o.Key(), a, b, ok)
		}
	}
	// Queries must agree.
	for id := event.ObjID(0); int(id) < s.NumObjects(); id++ {
		a, _ := s.AppendBackward(nil, id, 0, 2_000_000)
		b, _ := got.AppendBackward(nil, id, 0, 2_000_000)
		if len(a) != len(b) {
			t.Fatalf("query mismatch for obj %d: %d vs %d", id, len(a), len(b))
		}
	}
}

// TestParentLayoutRoundTrip opens stores persisted by the release before the
// flat store became the one-part case — one with no shard layout in its
// manifest, one saved with four shards — and requires a re-save to reproduce
// every file byte for byte: the on-disk format did not move.
func TestParentLayoutRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		dir    string
		shards int
	}{
		{"testdata/parent-flat", 1},
		{"testdata/parent-shards4", 4},
	} {
		s, err := Open(tc.dir, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.dir, err)
		}
		if s.ShardCount() != tc.shards {
			t.Fatalf("%s: opened with %d shards, want %d", tc.dir, s.ShardCount(), tc.shards)
		}
		out := t.TempDir()
		if err := s.Save(out); err != nil {
			t.Fatal(err)
		}
		want, _ := filepath.Glob(filepath.Join(tc.dir, "*"))
		got, _ := filepath.Glob(filepath.Join(out, "*"))
		if len(want) == 0 || len(got) != len(want) {
			t.Fatalf("%s: re-save wrote %d files, the fixture has %d", tc.dir, len(got), len(want))
		}
		for _, fp := range want {
			a, err := os.ReadFile(fp)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(out, filepath.Base(fp)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s: %s differs after open and re-save", tc.dir, filepath.Base(fp))
			}
		}
	}
}

func TestSaveRequiresSealed(t *testing.T) {
	s := New(nil)
	if err := s.Save(t.TempDir()); err != ErrNotSealed {
		t.Fatalf("Save on unsealed store: err = %v", err)
	}
}

func TestSaveEmptyStore(t *testing.T) {
	dir := t.TempDir()
	s := New(nil)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEvents() != 0 {
		t.Fatalf("empty store reloaded %d events", got.NumEvents())
	}
}

func TestOpenDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s := buildRandom(t, 500, 3)
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of every .dat file in turn.
	files, _ := filepath.Glob(filepath.Join(dir, "*.dat"))
	if len(files) == 0 {
		t.Fatal("no dat files")
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), raw...)
		bad[len(bad)/2] ^= 0xFF
		if err := os.WriteFile(f, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, nil); err == nil {
			t.Fatalf("corruption in %s not detected", filepath.Base(f))
		} else if !strings.Contains(err.Error(), "checksum") {
			t.Logf("%s: %v (acceptable non-checksum detection)", filepath.Base(f), err)
		}
		if err := os.WriteFile(f, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Restored files must open cleanly again.
	if _, err := Open(dir, nil); err != nil {
		t.Fatalf("restored store failed to open: %v", err)
	}
}

func TestOpenMissingDir(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope"), nil); err == nil {
		t.Fatal("missing directory must fail")
	}
}

func TestOpenBadManifest(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, manifestFile), []byte("{not json"), 0o644)
	if _, err := Open(dir, nil); err == nil {
		t.Fatal("bad manifest must fail")
	}
	os.WriteFile(filepath.Join(dir, manifestFile), []byte(`{"version": 99}`), 0o644)
	if _, err := Open(dir, nil); err == nil {
		t.Fatal("unsupported version must fail")
	}
}

func TestManifestCountMismatch(t *testing.T) {
	dir := t.TempDir()
	s := buildRandom(t, 200, 5)
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(raw), `"events": 200`, `"events": 199`, 1)
	if tampered == string(raw) {
		t.Fatal("manifest did not contain expected count")
	}
	os.WriteFile(filepath.Join(dir, manifestFile), []byte(tampered), 0o644)
	if _, err := Open(dir, nil); err == nil {
		t.Fatal("event count mismatch must fail")
	}
}

func BenchmarkQueryBackward(b *testing.B) {
	s := buildRandom(b, 100_000, 11)
	// Find the hottest object to make the benchmark meaningful.
	var hot event.ObjID
	for id := event.ObjID(0); int(id) < s.NumObjects(); id++ {
		if s.InDegree(id) > s.InDegree(hot) {
			hot = id
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AppendBackward(nil, hot, 400_000, 600_000); err != nil {
			b.Fatal(err)
		}
	}
}
