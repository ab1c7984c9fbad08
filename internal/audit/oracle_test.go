package audit

import (
	"encoding/hex"
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
	"time"

	"aptrace/internal/event"
)

// The string encoders the appenders replaced, kept as the reference
// FuzzEncode holds appendAuditd and appendETW to: same bytes, same failures.

// quoteAuditd renders a string value the way auditd does: double-quoted
// verbatim when safe, upper-case hex without quotes when the value contains
// a quote or control bytes.
func quoteAuditd(s string) string {
	clean := !strings.ContainsAny(s, "\"\n\r\t")
	if clean {
		return `"` + s + `"`
	}
	return strings.ToUpper(hex.EncodeToString([]byte(s)))
}

func encodeAuditd(r Record) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "type=APTRACE msg=audit(%d.000:0): action=%s dir=%s amount=%d",
		r.Time, r.Action, r.Dir, r.Amount)
	fmt.Fprintf(&sb, " host=%s exe=%s pid=%d start=%d",
		quoteAuditd(r.Subject.Host), quoteAuditd(r.Subject.Exe), r.Subject.PID, r.Subject.Start)
	switch r.Object.Type {
	case event.ObjProcess:
		fmt.Fprintf(&sb, " obj=proc obj_host=%s obj_exe=%s obj_pid=%d obj_start=%d",
			quoteAuditd(r.Object.Host), quoteAuditd(r.Object.Exe), r.Object.PID, r.Object.Start)
	case event.ObjFile:
		fmt.Fprintf(&sb, " obj=file obj_host=%s path=%s", quoteAuditd(r.Object.Host), quoteAuditd(r.Object.Path))
	case event.ObjSocket:
		fmt.Fprintf(&sb, " obj=ip obj_host=%s saddr=%s sport=%d daddr=%s dport=%d",
			quoteAuditd(r.Object.Host), quoteAuditd(r.Object.SrcIP), r.Object.SrcPort,
			quoteAuditd(r.Object.DstIP), r.Object.DstPort)
	default:
		return "", fmt.Errorf("audit: auditd: invalid object type %d", r.Object.Type)
	}
	return sb.String(), nil
}

func encodeETW(r Record) (string, error) {
	ev := etwEvent{
		Time:         time.Unix(r.Time, 0).UTC().Format(time.RFC3339),
		Action:       r.Action.String(),
		Dir:          r.Dir.String(),
		Amount:       r.Amount,
		SubjectHost:  r.Subject.Host,
		SubjectExe:   r.Subject.Exe,
		SubjectPid:   r.Subject.PID,
		SubjectStart: r.Subject.Start,
		ObjType:      r.Object.Type.String(),
		ObjHost:      r.Object.Host,
	}
	switch r.Object.Type {
	case event.ObjProcess:
		ev.Exe, ev.Pid, ev.Start = r.Object.Exe, r.Object.PID, r.Object.Start
	case event.ObjFile:
		ev.Path = r.Object.Path
	case event.ObjSocket:
		ev.SrcIP, ev.SrcPort = r.Object.SrcIP, r.Object.SrcPort
		ev.DstIP, ev.DstPort = r.Object.DstIP, r.Object.DstPort
	default:
		return "", fmt.Errorf("audit: etw: invalid object type %d", r.Object.Type)
	}
	raw, err := xml.Marshal(ev)
	if err != nil {
		return "", fmt.Errorf("audit: etw encode: %w", err)
	}
	return string(raw), nil
}

// encodeOracle is the reference line of r in format f, without the newline.
func encodeOracle(r Record, f Format) (string, error) {
	if f == FormatETW {
		return encodeETW(r)
	}
	return encodeAuditd(r)
}

// The map-based auditd parser parseAuditd replaced, kept as the reference
// FuzzParseLine holds the decoder to: same records, same failures.

// auditdFields tokenizes a key=value line honoring double quotes.
func auditdFields(line string) (map[string]string, error) {
	out := make(map[string]string)
	i := 0
	n := len(line)
	for i < n {
		for i < n && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= n {
			break
		}
		eq := strings.IndexByte(line[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("audit: auditd: stray token at byte %d", i)
		}
		key := line[i : i+eq]
		i += eq + 1
		var val string
		if i < n && line[i] == '"' {
			end := strings.IndexByte(line[i+1:], '"')
			if end < 0 {
				return nil, fmt.Errorf("audit: auditd: unterminated quote for %q", key)
			}
			val = line[i : i+end+2] // keep the quotes; unquoteAuditd strips them
			i += end + 2
		} else {
			end := strings.IndexByte(line[i:], ' ')
			if end < 0 {
				end = n - i
			}
			val = line[i : i+end]
			i += end
		}
		out[key] = val
	}
	return out, nil
}

func parseAuditdOracle(line string) (Record, error) {
	fields, err := auditdFields(line)
	if err != nil {
		return Record{}, err
	}
	msg, ok := fields["msg"]
	if !ok || !strings.HasPrefix(msg, "audit(") {
		return Record{}, fmt.Errorf("audit: auditd: missing msg=audit(...) header")
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(msg, "audit("), ":")
	if i := strings.IndexByte(inner, ':'); i >= 0 {
		inner = inner[:i]
	}
	inner = strings.TrimSuffix(inner, ")")
	secs := inner
	if i := strings.IndexByte(inner, '.'); i >= 0 {
		secs = inner[:i]
	}
	ts, err := strconv.ParseInt(secs, 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("audit: auditd: bad timestamp %q", msg)
	}

	num := func(key string, bits int) (int64, error) {
		v, ok := fields[key]
		if !ok {
			return 0, nil
		}
		n, err := strconv.ParseInt(v, 10, bits)
		if err != nil {
			return 0, fmt.Errorf("audit: auditd: field %s=%q is not numeric", key, v)
		}
		return n, nil
	}

	act, ok := event.ParseAction(fields["action"])
	if !ok {
		return Record{}, fmt.Errorf("audit: auditd: unknown action %q", fields["action"])
	}
	var dir event.Direction
	switch fields["dir"] {
	case "out":
		dir = event.FlowOut
	case "in":
		dir = event.FlowIn
	default:
		return Record{}, fmt.Errorf("audit: auditd: bad direction %q", fields["dir"])
	}
	amount, err := num("amount", 64)
	if err != nil {
		return Record{}, err
	}
	pid, err := num("pid", 32)
	if err != nil {
		return Record{}, err
	}
	start, err := num("start", 64)
	if err != nil {
		return Record{}, err
	}
	r := Record{
		Time:    ts,
		Action:  act,
		Dir:     dir,
		Amount:  amount,
		Subject: event.Process(unquoteAuditd(fields["host"]), unquoteAuditd(fields["exe"]), int32(pid), start),
	}
	switch fields["obj"] {
	case "proc":
		opid, err := num("obj_pid", 32)
		if err != nil {
			return Record{}, err
		}
		ostart, err := num("obj_start", 64)
		if err != nil {
			return Record{}, err
		}
		r.Object = event.Process(unquoteAuditd(fields["obj_host"]), unquoteAuditd(fields["obj_exe"]), int32(opid), ostart)
	case "file":
		r.Object = event.File(unquoteAuditd(fields["obj_host"]), unquoteAuditd(fields["path"]))
	case "ip":
		sport, err := num("sport", 32)
		if err != nil {
			return Record{}, err
		}
		dport, err := num("dport", 32)
		if err != nil {
			return Record{}, err
		}
		r.Object = event.Socket(unquoteAuditd(fields["obj_host"]), unquoteAuditd(fields["saddr"]), uint16(sport), unquoteAuditd(fields["daddr"]), uint16(dport))
	default:
		return Record{}, fmt.Errorf("audit: auditd: unknown object type %q", fields["obj"])
	}
	return r, nil
}
