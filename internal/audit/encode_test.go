package audit

import (
	"bytes"
	"errors"
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
	"aptrace/internal/workload"
)

// FuzzEncode holds Encode to the string encoders it replaced: for both
// formats, the same line plus "\n" in one Write, or the same failure and
// nothing written. Every field of the record is fuzzed, including the
// object fields its type does not carry.
func FuzzEncode(f *testing.F) {
	add := func(r Record) {
		o := r.Object
		f.Add(r.Time, uint8(r.Action), uint8(r.Dir), uint8(o.Type), r.Amount,
			r.Subject.Host, r.Subject.Exe, r.Subject.PID, r.Subject.Start,
			o.Host, o.Exe, o.PID, o.Start, o.Path, o.SrcIP, o.SrcPort, o.DstIP, o.DstPort)
	}
	for _, r := range sampleRecords() {
		add(r)
	}
	// One record per edge case: every action (and two past the last), every
	// direction and object type (and an invalid one of each), strings XML
	// and auditd must escape, negative times, amounts and PIDs, and zero
	// PID, start and ports, which ETW's omitempty drops.
	odd := []string{
		`say "hi"`, "tab\there", "line\nbreak", "cr\rhere", `&<>'`, "bad\xffutf8\xfe",
		"non\uFFFEchar", "ctl\x01\x7f", "real\uFFFDrune", "surrogate\xed\xa0\x80", "", "plain",
		"it's", "a&b", "x<y", "y>x",
	}
	for i := 0; i <= int(event.ActRecv)+2; i++ {
		s, t := odd[i%len(odd)], odd[(i+5)%len(odd)]
		add(Record{
			Time: int64(i-8) * 400 * 86400, Action: event.Action(i), Dir: event.Direction(i % 3), Amount: int64(4 - i),
			Subject: event.Object{Type: event.ObjProcess, Host: s, Exe: t, PID: int32(2 - i%5), Start: int64(i % 2)},
			Object: event.Object{Type: event.ObjectType(i % 4), Host: t, Exe: s, PID: int32(i%3 - 1), Start: int64(i%3 - 1),
				Path: s, SrcIP: t, SrcPort: uint16(i % 2), DstIP: s, DstPort: uint16(i % 3)},
		})
	}
	add(Record{Time: math.MinInt64, Action: 255, Dir: 255, Amount: math.MinInt64,
		Subject: event.Process("h", "e", math.MinInt32, math.MinInt64), Object: event.Process("h", "e", -1, -1)})
	add(Record{Time: math.MaxInt64, Action: event.ActSend, Amount: math.MaxInt64,
		Subject: event.Process("h", "e", math.MaxInt32, math.MaxInt64), Object: event.Socket("", "", 0, "", math.MaxUint16)})
	f.Fuzz(func(t *testing.T, tm int64, action, dir, typ uint8, amount int64,
		host, exe string, pid int32, start int64,
		objHost, objExe string, objPID int32, objStart int64, path, srcIP string, sport uint16, dstIP string, dport uint16) {
		r := Record{
			Time: tm, Action: event.Action(action), Dir: event.Direction(dir), Amount: amount,
			Subject: event.Object{Type: event.ObjProcess, Host: host, Exe: exe, PID: pid, Start: start},
			Object: event.Object{Type: event.ObjectType(typ), Host: objHost, Exe: objExe, PID: objPID, Start: objStart,
				Path: path, SrcIP: srcIP, SrcPort: sport, DstIP: dstIP, DstPort: dport},
		}
		for _, format := range []Format{FormatETW, FormatAuditd} {
			want, wantErr := encodeOracle(r, format)
			var w writeLog
			err := Encode(&w, r, format)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("format %d: Encode error %v, oracle %v", format, err, wantErr)
			}
			if err != nil {
				if w.Len() != 0 {
					t.Fatalf("format %d: failed Encode wrote %q", format, w.String())
				}
				continue
			}
			if got := w.String(); got != want+"\n" || w.calls != 1 {
				t.Fatalf("format %d: Encode wrote %q in %d writes, oracle %q", format, got, w.calls, want+"\n")
			}
		}
	})
}

func TestEncodeUnknownFormat(t *testing.T) {
	var w writeLog
	if err := Encode(&w, sampleRecords()[0], Format(7)); err == nil || w.calls != 0 {
		t.Fatalf("unknown format: err=%v, %d writes", err, w.calls)
	}
}

// errWrite is the failure writeLog injects.
var errWrite = errors.New("injected write failure")

// writeLog keeps what it is written and counts the calls. With fail > 0
// the fail-th call writes nothing and returns errWrite.
type writeLog struct {
	bytes.Buffer
	calls, fail int
	sizes       []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.calls++
	if w.calls == w.fail {
		return 0, errWrite
	}
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

// exportStore is a smoke-scale generated store, built once for the Export
// tests.
var exportStore = sync.OnceValues(func() (*store.Store, error) {
	ds, err := workload.Generate(workload.Config{Seed: 3, Hosts: 3, Days: 2, Density: 0.5}, simclock.NewSimulated(time.Time{}))
	if err != nil {
		return nil, err
	}
	return ds.Store, nil
})

// oracleExport is what Export must write: the oracle's lines, in the
// store's time order.
func oracleExport(t *testing.T, st *store.Store, f Format) []byte {
	t.Helper()
	var out bytes.Buffer
	min, max, _ := st.TimeRange()
	if err := st.Scan(min, max+1, func(e event.Event) bool {
		line, err := encodeOracle(Record{Time: e.Time, Action: e.Action, Dir: e.Dir, Amount: e.Amount,
			Subject: st.Object(e.Subject), Object: st.Object(e.Object)}, f)
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(line + "\n")
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// Export writes the oracle's bytes in 64 KiB blocks plus the remainder.
func TestExportMatchesOracleInBlocks(t *testing.T) {
	st, err := exportStore()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Format{FormatETW, FormatAuditd} {
		want := oracleExport(t, st, f)
		var w writeLog
		n, err := Export(st, &w, f)
		if err != nil || n != st.NumEvents() {
			t.Fatalf("format %d: n=%d err=%v, want n=%d", f, n, err, st.NumEvents())
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("format %d: Export differs from the oracle's %d bytes", f, len(want))
		}
		if limit := (len(want)+exportBlock-1)/exportBlock + 1; w.calls > limit || w.calls < 3 {
			t.Fatalf("format %d: %d writes for %d bytes, want 3..%d", f, w.calls, len(want), limit)
		}
		for i, size := range w.sizes[:len(w.sizes)-1] {
			if size != exportBlock {
				t.Fatalf("format %d: write %d is %d bytes, want %d", f, i, size, exportBlock)
			}
		}
	}
}

// A failed write stops Export with its error, and n counts exactly the
// records whose lines ended in the blocks written before it.
func TestExportWriteErrorCount(t *testing.T) {
	st, err := exportStore()
	if err != nil {
		t.Fatal(err)
	}
	want := oracleExport(t, st, FormatAuditd)
	calls := (len(want) + exportBlock - 1) / exportBlock
	for _, k := range []int{1, 2, calls / 2, calls} {
		w := writeLog{fail: k}
		n, err := Export(st, &w, FormatAuditd)
		written := want[:(k-1)*exportBlock]
		if !errors.Is(err, errWrite) || !bytes.Equal(w.Bytes(), written) {
			t.Fatalf("fail at write %d: err=%v, wrote %d bytes, want %d", k, err, w.Len(), len(written))
		}
		if whole := bytes.Count(written, []byte{'\n'}); n != whole {
			t.Fatalf("fail at write %d: n=%d, want %d whole lines", k, n, whole)
		}
	}
}

// BenchmarkExport exports the smoke-scale store to io.Discard; ns/op is per
// store, ns/record per event.
func BenchmarkExport(b *testing.B) {
	st, err := exportStore()
	if err != nil {
		b.Fatal(err)
	}
	for name, f := range map[string]Format{"etw": FormatETW, "auditd": FormatAuditd} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Export(st, io.Discard, f); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*st.NumEvents()), "ns/record")
		})
	}
}
