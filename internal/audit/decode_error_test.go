package audit

import (
	"errors"
	"strings"
	"testing"

	"aptrace/internal/store"
	"aptrace/internal/telemetry"
)

// TestDecodeErrorTyped pins the typed-error contract: every parse failure
// is a *DecodeError carrying the attempted format and a bounded excerpt.
func TestDecodeErrorTyped(t *testing.T) {
	cases := []struct {
		name   string
		line   string
		format string
	}{
		{"empty", "", ""},
		{"whitespace only", "   \t  ", ""},
		{"unrecognized prefix", "garbage line", ""},
		{"etw not xml", "<Event notxml", "etw"},
		{"etw bad time", `<Event Time="bogus" Action="read" Dir="in" ObjType="file" Path="/x"/>`, "etw"},
		{"etw bad action", `<Event Time="2019-04-16T06:15:14Z" Action="frob" Dir="in" ObjType="file" Path="/x"/>`, "etw"},
		{"etw bad direction", `<Event Time="2019-04-16T06:15:14Z" Action="read" Dir="sideways" ObjType="file" Path="/x"/>`, "etw"},
		{"etw bad object type", `<Event Time="2019-04-16T06:15:14Z" Action="read" Dir="in" ObjType="widget"/>`, "etw"},
		{"auditd missing msg", `type=APTRACE action=read dir=in obj=file path="/x"`, "auditd"},
		{"auditd bad timestamp", `type=APTRACE msg=audit(notanumber:0): action=read dir=in obj=file path="/x"`, "auditd"},
		{"auditd bad pid", `type=APTRACE msg=audit(5.000:0): action=read dir=in obj=file path="/x" pid=xyz`, "auditd"},
		{"auditd bad object", `type=APTRACE msg=audit(5.000:0): action=read dir=in obj=blob`, "auditd"},
		{"auditd unterminated quote", `type=APTRACE msg=audit(5.000:0): action=read dir=in obj=file path="unterminated`, "auditd"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseLine(tc.line)
			if err == nil {
				t.Fatalf("ParseLine(%q) must fail", tc.line)
			}
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("error is %T, want *DecodeError", err)
			}
			if de.Format != tc.format {
				t.Fatalf("Format = %q, want %q", de.Format, tc.format)
			}
			if len(de.Line) > maxDecodeErrorExcerpt {
				t.Fatalf("excerpt length %d exceeds bound %d", len(de.Line), maxDecodeErrorExcerpt)
			}
			if de.Error() == "" || !strings.HasPrefix(de.Error(), "audit: decode") {
				t.Fatalf("Error() = %q", de.Error())
			}
			// Unwrap exposes the parser cause when one exists; either way
			// errors.Is through the chain must terminate without panicking.
			if de.Err != nil && !errors.Is(err, de.Err) {
				t.Fatal("Unwrap does not expose the cause")
			}
		})
	}
}

// TestDecodeErrorExcerptBounded feeds a multi-megabyte garbage line and
// checks the error stays small.
func TestDecodeErrorExcerptBounded(t *testing.T) {
	huge := strings.Repeat("x", 4<<20)
	_, err := ParseLine(huge)
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("error is %T", err)
	}
	if len(de.Line) != maxDecodeErrorExcerpt {
		t.Fatalf("excerpt length = %d, want %d", len(de.Line), maxDecodeErrorExcerpt)
	}
	if len(de.Error()) > 4*maxDecodeErrorExcerpt {
		t.Fatalf("Error() ballooned to %d bytes", len(de.Error()))
	}
}

// TestIngestDecodeCounters checks the rejected-line split (decode vs
// validation) in both the stats and the telemetry counters.
func TestIngestDecodeCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := store.New(nil, store.WithTelemetry(reg))

	var input strings.Builder
	input.WriteString("complete garbage\n")
	input.WriteString("<Event notxml\n")
	// Decodes but fails validation (Time = 0).
	input.WriteString(`type=APTRACE msg=audit(0.000:0): action=read dir=in obj=file path="/x" exe="a" host="h"` + "\n")
	// One valid record.
	if err := Encode(&input, sampleRecords()[0], FormatAuditd); err != nil {
		t.Fatal(err)
	}

	stats, err := Ingest(st, strings.NewReader(input.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := IngestStats{Lines: 4, Ingested: 1, Rejected: 3, Decode: 2, Invalid: 1}
	if stats != want {
		t.Fatalf("stats = %+v, want %+v", stats, want)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MetricIngestDecodeErrors]; got != 2 {
		t.Fatalf("%s = %d, want 2", telemetry.MetricIngestDecodeErrors, got)
	}
	if got := snap.Counters[telemetry.MetricIngestInvalid]; got != 1 {
		t.Fatalf("%s = %d, want 1", telemetry.MetricIngestInvalid, got)
	}
	if got := snap.Counters[telemetry.MetricIngestRecords]; got != 1 {
		t.Fatalf("%s = %d, want 1", telemetry.MetricIngestRecords, got)
	}
}

// TestIngestLiveLine feeds IngestLive one line at a time, as a tail
// collector's drain cycle may: blank lines vanish, garbage is counted (never
// fatal), valid lines append durably, and the live store's registry sees
// every tick.
func TestIngestLiveLine(t *testing.T) {
	reg := telemetry.NewRegistry()
	l, err := store.OpenLive(t.TempDir(), nil, store.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	stats, err := IngestLive(l, strings.NewReader("   \n"))
	if err != nil || stats != (IngestStats{}) {
		t.Fatalf("blank line = %+v, %v", stats, err)
	}

	stats, err = IngestLive(l, strings.NewReader("not an audit line"))
	if err != nil {
		t.Fatalf("garbage must not be fatal: %v", err)
	}
	if stats.Decode != 1 || stats.Rejected != 1 || stats.Ingested != 0 {
		t.Fatalf("garbage stats = %+v", stats)
	}

	var buf strings.Builder
	if err := Encode(&buf, sampleRecords()[0], FormatETW); err != nil {
		t.Fatal(err)
	}
	stats, err = IngestLive(l, strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ingested != 1 {
		t.Fatalf("valid line stats = %+v", stats)
	}
	if l.PendingEvents()+l.BaseEvents() != 1 {
		t.Fatalf("live store holds %d events", l.PendingEvents()+l.BaseEvents())
	}
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MetricIngestRecords]; got != 1 {
		t.Fatalf("records counter = %d", got)
	}
	if got := snap.Counters[telemetry.MetricIngestDecodeErrors]; got != 1 {
		t.Fatalf("decode counter = %d", got)
	}
}

// TestIngestCountsCommittedRecords fails the second chunk's commit: Ingested
// and the records counter count the first chunk only, the events the store
// holds, so a server's batch event-ID range stays exact.
func TestIngestCountsCommittedRecords(t *testing.T) {
	reg := telemetry.NewRegistry()
	l, err := store.OpenLive(t.TempDir(), nil, store.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wire strings.Builder
	rec := sampleRecords()[0]
	for i := 0; i < chunkRecords+10; i++ {
		rec.Time++
		if err := Encode(&wire, rec, FormatAuditd); err != nil {
			t.Fatal(err)
		}
	}
	commits := 0
	stats, err := ingest(strings.NewReader(wire.String()), reg, func(recs []store.Record) error {
		if commits++; commits > 1 {
			return errors.New("disk full")
		}
		_, err := l.Commit(recs)
		return err
	})
	if err == nil {
		t.Fatal("a failed commit must abort the stream")
	}
	held := l.BaseEvents() + l.PendingEvents()
	if stats.Lines != chunkRecords+10 || stats.Ingested != chunkRecords || held != chunkRecords {
		t.Fatalf("stats = %+v with %d events held, want %d ingested and held", stats, held, chunkRecords)
	}
	if got := reg.Snapshot().Counters[telemetry.MetricIngestRecords]; got != chunkRecords {
		t.Fatalf("records counter = %d, want %d", got, chunkRecords)
	}
}
