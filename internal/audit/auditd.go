package audit

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"aptrace/internal/event"
)

// Linux-Audit-style format: a single line of key=value pairs with the
// characteristic msg=audit(EPOCH.MS:SERIAL) prefix. String values are
// double-quoted like auditd renders comm= and exe=.
//
//	type=APTRACE msg=audit(1555395314.000:42): action=read dir=in amount=4096
//	  host="web1" exe="bash" pid=901 start=1555390000
//	  obj=file obj_host="web1" path="/etc/passwd"

// appendAuditdString appends a string value the way auditd renders it:
// double-quoted verbatim when safe, upper-case hex without quotes when the
// value contains a quote or control bytes (auditd's "untrusted string"
// encoding).
func appendAuditdString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '"' || c == '\n' || c == '\r' || c == '\t' {
			const upperHex = "0123456789ABCDEF"
			for i := 0; i < len(s); i++ {
				buf = append(buf, upperHex[s[i]>>4], upperHex[s[i]&0xf])
			}
			return buf
		}
	}
	buf = append(append(buf, '"'), s...)
	return append(buf, '"')
}

// unquoteAuditd is the inverse: quoted values are verbatim, unquoted ones
// are hex-decoded.
func unquoteAuditd(raw string) string {
	if strings.HasPrefix(raw, `"`) && strings.HasSuffix(raw, `"`) && len(raw) >= 2 {
		return raw[1 : len(raw)-1]
	}
	if b, err := hex.DecodeString(strings.ToLower(raw)); err == nil && len(raw) > 0 && len(raw)%2 == 0 {
		return string(b)
	}
	return raw
}

// appendAuditd appends the auditd line of e, whose endpoints are subj and
// obj, to buf without the newline. On error buf is returned as it came.
func appendAuditd(buf []byte, e *event.Event, subj, obj *event.Object) ([]byte, error) {
	if obj.Type > event.ObjSocket {
		return buf, fmt.Errorf("audit: auditd: invalid object type %d", obj.Type)
	}
	buf = strconv.AppendInt(append(buf, "type=APTRACE msg=audit("...), e.Time, 10)
	buf = append(append(buf, ".000:0): action="...), e.Action.String()...)
	buf = append(append(buf, " dir="...), e.Dir.String()...)
	buf = strconv.AppendInt(append(buf, " amount="...), e.Amount, 10)
	buf = appendAuditdString(append(buf, " host="...), subj.Host)
	buf = appendAuditdString(append(buf, " exe="...), subj.Exe)
	buf = strconv.AppendInt(append(buf, " pid="...), int64(subj.PID), 10)
	buf = strconv.AppendInt(append(buf, " start="...), subj.Start, 10)
	buf = append(append(buf, " obj="...), obj.Type.String()...)
	buf = appendAuditdString(append(buf, " obj_host="...), obj.Host)
	switch obj.Type {
	case event.ObjProcess:
		buf = appendAuditdString(append(buf, " obj_exe="...), obj.Exe)
		buf = strconv.AppendInt(append(buf, " obj_pid="...), int64(obj.PID), 10)
		buf = strconv.AppendInt(append(buf, " obj_start="...), obj.Start, 10)
	case event.ObjFile:
		buf = appendAuditdString(append(buf, " path="...), obj.Path)
	case event.ObjSocket:
		buf = appendAuditdString(append(buf, " saddr="...), obj.SrcIP)
		buf = strconv.AppendUint(append(buf, " sport="...), uint64(obj.SrcPort), 10)
		buf = appendAuditdString(append(buf, " daddr="...), obj.DstIP)
		buf = strconv.AppendUint(append(buf, " dport="...), uint64(obj.DstPort), 10)
	}
	return buf, nil
}

// auditdField is a raw value as the line carries it; ok tells a numeric
// field that is absent (it reads 0) from one present but empty.
type auditdField struct {
	v  string
	ok bool
}

// auditdNum parses a numeric field; an absent one reads 0.
func auditdNum(key string, f auditdField, bits int) (int64, error) {
	if !f.ok {
		return 0, nil
	}
	n, err := strconv.ParseInt(f.v, 10, bits)
	if err != nil {
		return 0, fmt.Errorf("audit: auditd: field %s=%q is not numeric", key, f.v)
	}
	return n, nil
}

// parseAuditd decodes one key=value line, honoring double quotes. It scans
// each pair straight into the field its key names, with no map: a duplicate
// key's last value wins and unknown keys are skipped. A quoted value keeps
// its quotes; unquoteAuditd strips them.
func parseAuditd(line string) (Record, error) {
	var msg, action, dir, obj, host, exe, objHost, objExe, path, saddr, daddr string
	var amount, pid, start, objPID, objStart, sport, dport auditdField
	for i, n := 0, len(line); i < n; {
		for i < n && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= n {
			break
		}
		eq := strings.IndexByte(line[i:], '=')
		if eq < 0 {
			return Record{}, fmt.Errorf("audit: auditd: stray token at byte %d", i)
		}
		key := line[i : i+eq]
		i += eq + 1
		end := 0
		if i < n && line[i] == '"' {
			if end = strings.IndexByte(line[i+1:], '"'); end < 0 {
				return Record{}, fmt.Errorf("audit: auditd: unterminated quote for %q", key)
			}
			end += 2
		} else if end = strings.IndexByte(line[i:], ' '); end < 0 {
			end = n - i
		}
		val := line[i : i+end]
		i += end
		switch key {
		case "msg":
			msg = val
		case "action":
			action = val
		case "dir":
			dir = val
		case "amount":
			amount = auditdField{val, true}
		case "host":
			host = val
		case "exe":
			exe = val
		case "pid":
			pid = auditdField{val, true}
		case "start":
			start = auditdField{val, true}
		case "obj":
			obj = val
		case "obj_host":
			objHost = val
		case "obj_exe":
			objExe = val
		case "obj_pid":
			objPID = auditdField{val, true}
		case "obj_start":
			objStart = auditdField{val, true}
		case "path":
			path = val
		case "saddr":
			saddr = val
		case "sport":
			sport = auditdField{val, true}
		case "daddr":
			daddr = val
		case "dport":
			dport = auditdField{val, true}
		}
	}
	if !strings.HasPrefix(msg, "audit(") {
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

	act, ok := event.ParseAction(action)
	if !ok {
		return Record{}, fmt.Errorf("audit: auditd: unknown action %q", action)
	}
	r := Record{Time: ts, Action: act}
	switch dir {
	case "out":
		r.Dir = event.FlowOut
	case "in":
		r.Dir = event.FlowIn
	default:
		return Record{}, fmt.Errorf("audit: auditd: bad direction %q", dir)
	}
	if r.Amount, err = auditdNum("amount", amount, 64); err != nil {
		return Record{}, err
	}
	p, err := auditdNum("pid", pid, 32)
	if err != nil {
		return Record{}, err
	}
	st, err := auditdNum("start", start, 64)
	if err != nil {
		return Record{}, err
	}
	r.Subject = event.Process(unquoteAuditd(host), unquoteAuditd(exe), int32(p), st)
	switch obj {
	case "proc":
		opid, err := auditdNum("obj_pid", objPID, 32)
		if err != nil {
			return Record{}, err
		}
		ostart, err := auditdNum("obj_start", objStart, 64)
		if err != nil {
			return Record{}, err
		}
		r.Object = event.Process(unquoteAuditd(objHost), unquoteAuditd(objExe), int32(opid), ostart)
	case "file":
		r.Object = event.File(unquoteAuditd(objHost), unquoteAuditd(path))
	case "ip":
		sp, err := auditdNum("sport", sport, 32)
		if err != nil {
			return Record{}, err
		}
		dp, err := auditdNum("dport", dport, 32)
		if err != nil {
			return Record{}, err
		}
		r.Object = event.Socket(unquoteAuditd(objHost), unquoteAuditd(saddr), uint16(sp), unquoteAuditd(daddr), uint16(dp))
	default:
		return Record{}, fmt.Errorf("audit: auditd: unknown object type %q", obj)
	}
	return r, nil
}
