package store

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"aptrace/internal/event"
)

// compareOrder is the reorder Seal ran before timeOrder, kept as its oracle:
// an index-permutation comparison sort of a log keyed on (time, position).
func compareOrder(log []event.Event) []int32 {
	ord := make([]int32, len(log))
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int {
		if c := cmp.Compare(log[a].Time, log[b].Time); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return ord
}

// sealByCompare seals an unsealed store after bringing every part's whole
// log (and its arrival column) into compareOrder's order, so Seal finds
// nothing left to reorder: the sealed store the reorder has to reproduce.
func sealByCompare(t *testing.T, s *Store) {
	t.Helper()
	for _, p := range s.parts {
		n := len(p.events)
		if n == 0 {
			continue
		}
		events := make([]event.Event, n)
		var seq []uint32
		if p.seq != nil {
			seq = make([]uint32, n)
		}
		for i, o := range compareOrder(p.events) {
			events[i] = p.events[o]
			if seq != nil {
				seq[i] = p.seq[o]
			}
		}
		p.events, p.seq, p.inOrder = events, seq, n
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
}

// tidyLog decodes a fuzzed log, two bytes an event. The top two bits of the
// first byte pick the time: in order (a clock that advances 0–7, so ties are
// common), late (a small signed time, negative half the time), or within 3
// of MinInt64 or of MaxInt64, so that one log's span overflows int64. The
// low bits pick one of four hosts, which spreads the log over the parts, and
// one of four files.
func tidyLog(data []byte) []genEvent {
	var log []genEvent
	now := int64(0)
	for i := 0; i+1 < len(data) && len(log) < 512; i += 2 {
		b0, b1 := data[i], data[i+1]
		var tm int64
		switch b0 >> 6 {
		case 0:
			now += int64(b1 & 7)
			tm = now
		case 1:
			tm = int64(int8(b1))
		case 2:
			tm = math.MinInt64 + int64(b1&3)
		case 3:
			tm = math.MaxInt64 - int64(b1&3)
		}
		host := fmt.Sprintf("h%d", b0&3)
		log = append(log, genEvent{
			t:       tm,
			subject: event.Process(host, "p", 1, 1),
			object:  event.File(host, fmt.Sprintf("/f%d", b0>>2&3)),
			action:  event.ActWrite,
			dir:     event.FlowOut,
			amount:  int64(b1),
		})
	}
	return log
}

// unsealed adds log to a new store, in arrival order, without sealing it.
func unsealed(t testing.TB, log []genEvent, opts ...Option) *Store {
	t.Helper()
	s := New(nil, opts...)
	for _, g := range log {
		if _, err := s.AddEvent(g.t, g.subject, g.object, g.action, g.dir, g.amount); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// expectSameSignature requires got's ContentSignature to be want's.
func expectSameSignature(t *testing.T, what string, want, got *Store) {
	t.Helper()
	ws, err := want.ContentSignature()
	if err != nil {
		t.Fatal(err)
	}
	if gs, err := got.ContentSignature(); err != nil || gs != ws {
		t.Fatalf("%s: ContentSignature %x (%v), the comparison sort's %x", what, gs, err, ws)
	}
}

// FuzzTidyOrder holds Seal's reorder to the (time, position) comparison sort
// it replaced. For a fuzzed log — duplicate and negative times, times at
// both ends of int64, an in-order prefix with late arrivals behind it — on
// one part and on several (where the arrival column moves with the log):
// timeOrder gives the comparison sort's permutation of the whole log and of
// every part's; Seal gives the store sealed from logs the comparison sort
// ordered, byte for byte; and a live store that publishes a snapshot after
// the first split events and then takes the rest, late arrivals reaching
// below what the snapshot reads, gives both stores and leaves the first
// snapshot as it was.
func FuzzTidyOrder(f *testing.F) {
	inOrder := []byte{0, 3, 1, 0, 2, 5, 3, 1, 4, 7, 5, 0, 6, 2, 7, 4}
	late := []byte{0x40, 0xF0, 0x41, 0x02, 0x42, 0xF0, 0x43, 0x7F, 0x40, 0x00}
	extremes := []byte{0x80, 0, 0xC1, 3, 0x82, 1, 0xC3, 0, 0x40, 0x80, 0x81, 0, 0xC2, 3}
	f.Add(inOrder, uint8(0), uint16(8))
	f.Add(append(slices.Clone(inOrder), late...), uint8(0), uint16(8))
	f.Add(append(slices.Clone(inOrder), late...), uint8(3), uint16(8))
	f.Add(append(slices.Clone(inOrder), extremes...), uint8(2), uint16(5))
	f.Add(append(append(slices.Clone(extremes), inOrder...), late...), uint8(3), uint16(0))
	f.Add([]byte{}, uint8(1), uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, parts uint8, split uint16) {
		log := tidyLog(data)
		opts := []Option{WithShards(1 + int(parts)%4), withShardEpoch(4)}
		first := int(split) % (len(log) + 1)

		raw := make([]event.Event, len(log))
		for i, g := range log {
			raw[i] = event.Event{ID: event.EventID(i + 1), Time: g.t}
		}
		want := unsealed(t, log, opts...)
		logs := [][]event.Event{raw}
		for _, p := range want.parts {
			logs = append(logs, p.events)
		}
		for i, l := range logs {
			if len(l) > 0 && !slices.Equal(timeOrder(l), compareOrder(l)) {
				t.Fatalf("log %d (0: all, then each part's): timeOrder %v, the comparison sort %v", i, timeOrder(l), compareOrder(l))
			}
		}
		sealByCompare(t, want)

		got := unsealed(t, log, opts...)
		if err := got.Seal(); err != nil {
			t.Fatal(err)
		}
		expectSameSealed(t, want, got)
		expectSameSignature(t, "Seal", want, got)

		wantFirst := unsealed(t, log[:first], opts...)
		sealByCompare(t, wantFirst)
		l, err := OpenLive(t.TempDir(), nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		var snaps [2]*Store
		for i, batch := range [][]genEvent{log[:first], log[first:]} {
			for _, g := range batch {
				if _, err := l.Append(g.t, g.subject, g.object, g.action, g.dir, g.amount); err != nil {
					t.Fatal(err)
				}
			}
			if snaps[i], err = l.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		expectSameSealed(t, wantFirst, snaps[0])
		expectSameSignature(t, "first snapshot", wantFirst, snaps[0])
		expectSameSealed(t, want, snaps[1])
		expectSameSignature(t, "second snapshot", want, snaps[1])
	})
}

// BenchmarkSeal seals a 200,000-event log that arrived in random order over
// three days, on one part: the reorder is the whole log. It reports the
// seal's nanoseconds per event.
func BenchmarkSeal(b *testing.B) {
	const n = 200_000
	rng := rand.New(rand.NewSource(1))
	log := make([]genEvent, n)
	for i := range log {
		host := fmt.Sprintf("host-%d", rng.Intn(8))
		log[i] = genEvent{
			t:       1_700_000_000 + rng.Int63n(3*86_400),
			subject: event.Process(host, fmt.Sprintf("proc-%d", rng.Intn(40)), int32(rng.Intn(40)), 1),
			object:  event.File(host, fmt.Sprintf("/data/f%d", rng.Intn(2_000))),
			action:  event.ActWrite,
			dir:     event.FlowOut,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := unsealed(b, log)
		b.StartTimer()
		if err := s.Seal(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
}
