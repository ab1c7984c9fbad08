package audit

import (
	"errors"
	"strings"
	"testing"
)

// FuzzParseLine fuzzes both wire-format parsers through the auto-detecting
// entry point. Records that parse must survive an encode/parse round trip,
// and on every input the auditd decoder must agree with the map-based
// reference parser: the same record, or the same error.
func FuzzParseLine(f *testing.F) {
	for _, r := range sampleRecords() {
		for _, format := range []Format{FormatETW, FormatAuditd} {
			if line, err := encodeOracle(r, format); err == nil {
				f.Add(line)
			}
		}
	}
	f.Add("type=APTRACE msg=audit(1.000:0): action=read dir=in")
	f.Add("<Event/>")
	// Error-path seeds: one per DecodeError branch, so the corpus walks the
	// failure classification (unrecognized, ETW parse, auditd parse) and
	// the excerpt-bounding code, not just the happy round trip.
	f.Add("")
	f.Add("   \t  ")
	f.Add("no recognizable prefix at all")
	f.Add("<Event notxml")
	f.Add(`<Event Time="bogus" Action="read" Dir="in" ObjType="file" Path="/x"/>`)
	f.Add(`<Event Time="2019-04-16T06:15:14Z" Action="frob" Dir="in" ObjType="file" Path="/x"/>`)
	f.Add(`type=APTRACE action=read dir=in obj=file path="/x"`)
	f.Add(`type=APTRACE msg=audit(notanumber:0): action=read dir=in obj=file path="/x"`)
	f.Add(`type=APTRACE msg=audit(5.000:0): action=read dir=in obj=file path="unterminated`)
	f.Add(`type=APTRACE msg=audit(5.000:0): action=read dir=in obj=blob`)
	f.Add("<" + strings.Repeat("A", 4096))
	f.Add("type=" + strings.Repeat("B", 4096))
	// Decoder-language seeds: a duplicate key (the last wins), an unknown
	// key, a missing amount and pid (they read 0), hex-encoded strings.
	f.Add(`type=APTRACE msg=audit(5.000:0): action=read action=write dir=in dir=out amount=x amount=7 exe="a" obj=file path="/x"`)
	f.Add(`type=APTRACE msg=audit(5.000:0): action=read dir=in exe="a" color="blue" obj=file path="/x" x=`)
	f.Add(`type=APTRACE msg=audit(5.000:0): action=read dir=in host="h" exe="a" start=9 obj=file obj_host="h" path="/x"`)
	f.Add(`type=APTRACE msg=audit(5.000:0): action=connect dir=out host=776562 exe=626173680A pid=1 obj=ip obj_host=68 saddr=31 sport=2 daddr=3130 dport=80`)
	f.Fuzz(func(t *testing.T, line string) {
		got, gotErr := parseAuditd(line)
		want, wantErr := parseAuditdOracle(line)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("auditd decoder error %v, reference parser %v", gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("auditd decoder and reference parser disagree:\n%+v\n%+v", got, want)
		}
		rec, err := ParseLine(line)
		if err != nil {
			// Every failure must be the typed error with a bounded excerpt.
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("ParseLine error is %T, want *DecodeError", err)
			}
			if len(de.Line) > maxDecodeErrorExcerpt {
				t.Fatalf("excerpt length %d exceeds bound", len(de.Line))
			}
			return
		}
		if rec.Validate() != nil {
			return
		}
		for _, format := range []Format{FormatETW, FormatAuditd} {
			enc, err := encodeOracle(rec, format)
			if err != nil {
				t.Fatalf("valid record failed to encode (format %d): %v", format, err)
			}
			again, err := ParseLine(enc)
			if err != nil {
				t.Fatalf("re-encoded record failed to parse: %v\n%s", err, enc)
			}
			if again != rec {
				t.Fatalf("round trip changed record:\n%+v\n%+v", rec, again)
			}
		}
	})
}
