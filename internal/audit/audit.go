// Package audit implements the collection-side record formats APTrace's
// deployment ingests: an ETW-style XML event format (Windows hosts) and a
// Linux-Audit-style key=value format. The paper's system consumed both
// (Section IV-A: "We collected system events with Windows ETW and Linux
// Audit messages"); this package provides encoders, parsers, and a stream
// ingester that normalizes either format into store events, so the full
// collect -> parse -> normalize -> store path is exercised without OS hooks.
package audit

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"aptrace/internal/event"
	"aptrace/internal/store"
	"aptrace/internal/telemetry"
)

// Record is one normalized audit record, the common denominator of both
// wire formats.
type Record struct {
	Time    int64 // Unix seconds
	Action  event.Action
	Dir     event.Direction
	Amount  int64
	Subject event.Object // always a process
	Object  event.Object
}

// cleanString reports whether s can be carried faithfully by both wire
// formats: valid UTF-8 with no control characters. Real collectors hex-arm
// such names; this normalizer rejects them instead of corrupting them.
func cleanString(s string) bool {
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		if r < 0x20 || r == 0x7f {
			return false
		}
	}
	return true
}

// maxRecordTime is 9999-12-31T23:59:59Z, the last instant RFC 3339 (and
// hence the ETW-style wire format) can carry with a four-digit year.
const maxRecordTime = 253402300799

// Validate checks the structural invariants a record must satisfy before
// ingestion.
func (r Record) Validate() error {
	if r.Time <= 0 || r.Time > maxRecordTime {
		return fmt.Errorf("audit: timestamp %d outside the representable range", r.Time)
	}
	for _, s := range []string{
		r.Subject.Host, r.Subject.Exe,
		r.Object.Host, r.Object.Exe, r.Object.Path,
		r.Object.SrcIP, r.Object.DstIP,
	} {
		if !cleanString(s) {
			return fmt.Errorf("audit: string field contains control bytes or invalid UTF-8")
		}
	}
	if r.Subject.Type != event.ObjProcess {
		return fmt.Errorf("audit: subject must be a process, got %v", r.Subject.Type)
	}
	if r.Subject.Exe == "" {
		return fmt.Errorf("audit: subject has no executable name")
	}
	if r.Action == event.ActUnknown {
		return fmt.Errorf("audit: unknown action")
	}
	switch r.Object.Type {
	case event.ObjProcess:
		if r.Object.Exe == "" {
			return fmt.Errorf("audit: process object has no executable name")
		}
	case event.ObjFile:
		if r.Object.Path == "" {
			return fmt.Errorf("audit: file object has no path")
		}
	case event.ObjSocket:
		if r.Object.DstIP == "" {
			return fmt.Errorf("audit: socket object has no destination")
		}
	default:
		return fmt.Errorf("audit: invalid object type %d", r.Object.Type)
	}
	return nil
}

// Format identifies an audit wire format.
type Format uint8

const (
	// FormatETW is the Windows ETW-style XML line format.
	FormatETW Format = iota
	// FormatAuditd is the Linux Audit style key=value line format.
	FormatAuditd
)

// appender is a wire format's line encoder: it appends the line of e, whose
// endpoints are subj and obj, to buf without the newline.
type appender func(buf []byte, e *event.Event, subj, obj *event.Object) ([]byte, error)

// appenderOf returns the line encoder of format f.
func appenderOf(f Format) (appender, error) {
	switch f {
	case FormatETW:
		return appendETW, nil
	case FormatAuditd:
		return appendAuditd, nil
	}
	return nil, fmt.Errorf("audit: unknown format %d", f)
}

// Encode writes r to w in the given format, one line per record, with one
// Write.
func Encode(w io.Writer, r Record, f Format) error {
	appendLine, err := appenderOf(f)
	if err != nil {
		return err
	}
	e := event.Event{Time: r.Time, Action: r.Action, Dir: r.Dir, Amount: r.Amount}
	line, err := appendLine(nil, &e, &r.Subject, &r.Object)
	if err != nil {
		return err
	}
	_, err = w.Write(append(line, '\n'))
	return err
}

// DecodeError is the typed error every undecodable audit line surfaces:
// which wire format the parser attempted, the underlying reason, and a
// bounded excerpt of the offending line. Garbage on the wire must never
// panic the collection pipeline; it becomes one of these (and a tick of
// the aptrace_ingest_decode_errors_total counter) instead.
type DecodeError struct {
	Format string // "etw", "auditd", or "" when no format was recognized
	Line   string // offending line, truncated to maxDecodeErrorExcerpt
	Err    error  // parser-level cause; nil for empty/unrecognized lines
}

// maxDecodeErrorExcerpt bounds how much of a garbage line a DecodeError
// carries, so a multi-megabyte binary blob cannot balloon error messages.
const maxDecodeErrorExcerpt = 80

// Error implements error.
func (e *DecodeError) Error() string {
	format := e.Format
	if format == "" {
		format = "unrecognized format"
	}
	if e.Err != nil {
		return fmt.Sprintf("audit: decode (%s): %v", format, e.Err)
	}
	return fmt.Sprintf("audit: decode (%s): %.*q", format, maxDecodeErrorExcerpt, e.Line)
}

// Unwrap exposes the parser-level cause to errors.Is/As.
func (e *DecodeError) Unwrap() error { return e.Err }

// decodeError builds the typed error with a bounded line excerpt.
func decodeError(format, line string, err error) *DecodeError {
	if len(line) > maxDecodeErrorExcerpt {
		line = line[:maxDecodeErrorExcerpt]
	}
	return &DecodeError{Format: format, Line: line, Err: err}
}

// ParseLine parses one line in either format, auto-detected: ETW lines start
// with '<', auditd lines with "type=". Every failure is a *DecodeError.
func ParseLine(line string) (Record, error) {
	trimmed := strings.TrimSpace(line)
	switch {
	case trimmed == "":
		return Record{}, decodeError("", "(empty line)", nil)
	case strings.HasPrefix(trimmed, "<"):
		rec, err := parseETW(trimmed)
		if err != nil {
			return Record{}, decodeError("etw", trimmed, err)
		}
		return rec, nil
	case strings.HasPrefix(trimmed, "type="):
		rec, err := parseAuditd(trimmed)
		if err != nil {
			return Record{}, decodeError("auditd", trimmed, err)
		}
		return rec, nil
	default:
		return Record{}, decodeError("", trimmed, nil)
	}
}

// IngestStats reports what an Ingest pass did.
type IngestStats struct {
	Lines    int `json:"lines"`    // lines read (excluding blanks)
	Ingested int `json:"ingested"` // records stored
	Rejected int `json:"rejected"` // lines that failed to parse or validate
	// Decode and Invalid split Rejected by failure stage: lines the wire
	// parsers could not decode vs records that decoded but failed
	// structural validation.
	Decode  int `json:"decode_errors"`
	Invalid int `json:"invalid_records"`
}

// chunkRecords is how many decoded records an ingest pass commits at once:
// on a live store, one lock and one WAL write per chunk.
const chunkRecords = 4096

// ingest is the scanning loop behind Ingest and IngestLive. It decodes and
// validates lines into a chunk and hands each full chunk, and the last, to
// commit. Malformed lines are counted, not fatal; only commit errors (a
// sealed store, a failed WAL write) abort. Ingested counts the records of
// chunks that committed. A nil registry yields nil counters, free no-ops.
func ingest(r io.Reader, reg *telemetry.Registry, commit func([]store.Record) error) (IngestStats, error) {
	var stats IngestStats
	records, decodes, invalids := reg.Counter(telemetry.MetricIngestRecords),
		reg.Counter(telemetry.MetricIngestDecodeErrors), reg.Counter(telemetry.MetricIngestInvalid)
	chunk := make([]store.Record, 0, chunkRecords)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		if err := commit(chunk); err != nil {
			return err
		}
		stats.Ingested += len(chunk)
		records.Add(int64(len(chunk)))
		chunk = chunk[:0]
		return nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		stats.Lines++
		rec, err := ParseLine(line)
		if err != nil {
			stats.Rejected++
			stats.Decode++
			decodes.Inc()
			continue
		}
		if err := rec.Validate(); err != nil {
			stats.Rejected++
			stats.Invalid++
			invalids.Inc()
			continue
		}
		if chunk = append(chunk, store.Record(rec)); len(chunk) == chunkRecords {
			if err := flush(); err != nil {
				return stats, err
			}
		}
	}
	if err := flush(); err != nil {
		return stats, err
	}
	return stats, sc.Err()
}

// Ingest reads newline-delimited audit records from r (formats may be
// mixed), validates them, and appends them to the store. Malformed lines
// are counted and skipped rather than aborting the stream — collection
// pipelines drop garbage, they do not stop. The store must not be sealed.
func Ingest(st *store.Store, r io.Reader) (IngestStats, error) {
	return ingest(r, st.Telemetry(), func(recs []store.Record) error {
		for _, rec := range recs {
			if _, err := st.AddEvent(rec.Time, rec.Subject, rec.Object, rec.Action, rec.Dir, rec.Amount); err != nil {
				return err
			}
		}
		return nil
	})
}

// IngestLive streams newline-delimited audit records into a live store —
// the collection pipeline of a deployed system — committing valid records
// a chunk at a time, each chunk with one durable WAL write. Malformed lines
// are counted and skipped.
func IngestLive(l *store.Live, r io.Reader) (IngestStats, error) {
	return ingest(r, l.Telemetry(), func(recs []store.Record) error {
		_, err := l.Commit(recs)
		return err
	})
}

// exportBlock is the size of the blocks Export hands its writer.
const exportBlock = 64 << 10

// Export writes every event of a sealed store to w in the given format, in
// time order: the inverse of Ingest up to event IDs. The lines go to w in
// 64 KiB blocks, a line straddling two, plus the remainder: one write(2) per
// block on a file, not per record. After a failed write, n counts the
// records whose whole line was in the blocks written before it.
func Export(st *store.Store, w io.Writer, f Format) (int, error) {
	from, to, ok := st.TimeRange()
	if !ok {
		return 0, nil
	}
	appendLine, err := appenderOf(f)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 0, 2*exportBlock)
	n, held := 0, 0    // records written whole; records with bytes in buf
	var ev event.Event // one copy for every line: &e would escape per call
	var encErr, writeErr error
	if err := st.Scan(from, to+1, func(e event.Event) bool {
		ev = e
		if buf, encErr = appendLine(buf, &ev, st.ObjectRef(e.Subject), st.ObjectRef(e.Object)); encErr != nil {
			return false
		}
		buf, held = append(buf, '\n'), held+1
		for len(buf) >= exportBlock {
			if _, writeErr = w.Write(buf[:exportBlock]); writeErr != nil {
				return false
			}
			// Every held line but the last ended inside the block; the last
			// spills into the next one unless it ended with this one.
			buf = buf[:copy(buf, buf[exportBlock:])]
			spill := min(len(buf), 1)
			n, held = n+held-spill, spill
		}
		return true
	}); err != nil {
		return 0, err
	}
	if writeErr != nil {
		return n, writeErr
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return n, err
		}
	}
	return n + held, encErr
}
