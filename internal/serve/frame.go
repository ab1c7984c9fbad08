package serve

import (
	"strconv"
	"time"
	"unicode/utf8"

	"aptrace/internal/event"
	"aptrace/internal/graph"
	"aptrace/internal/store"
)

// appendUpdateFrame appends update u as one SSE frame,
//
//	event: update
//	data: {"seq":…,"event_id":…,"subject":…,"object":…,"action":…,"new_node":…,"edges":…,"at":…}
//
// with objects named by their label in st (empty when st is nil: the run has
// no view yet) and at as RFC 3339 with nanoseconds, UTC. The bytes are what
// encoding/json gives for the same payload as a struct (the frame tests and
// fuzzer hold it to that). It allocates nothing beyond growing buf, which is
// what lets the stream handler turn a whole wake-up's updates into one write.
func appendUpdateFrame(buf []byte, st *store.Store, seq int, u *graph.Update) []byte {
	buf = append(buf, "event: update\ndata: {\"seq\":"...)
	buf = strconv.AppendInt(buf, int64(seq), 10)
	buf = append(buf, `,"event_id":`...)
	buf = strconv.AppendUint(buf, uint64(u.Event.ID), 10)
	buf = append(buf, `,"subject":"`...)
	if st != nil {
		buf = appendObjLabel(buf, st.ObjectRef(u.Event.Subject))
	}
	buf = append(buf, `","object":"`...)
	if st != nil {
		buf = appendObjLabel(buf, st.ObjectRef(u.Event.Object))
	}
	buf = append(buf, `","action":"`...)
	buf = appendJSONString(buf, u.Event.Action.String())
	buf = append(buf, `","new_node":`...)
	buf = strconv.AppendBool(buf, u.NewNode)
	buf = append(buf, `,"edges":`...)
	buf = strconv.AppendInt(buf, int64(u.Edges), 10)
	buf = append(buf, `,"at":"`...)
	buf = u.At.UTC().AppendFormat(buf, time.RFC3339Nano) // digits, letters, "-:.+": nothing to escape
	return append(buf, "\"}\n\n"...)
}

// appendObjLabel appends the update stream's name for an object — a file's
// path, a socket's destination ip:port, a process's executable — escaped for
// a JSON string.
func appendObjLabel(buf []byte, o *event.Object) []byte {
	switch o.Type {
	case event.ObjFile:
		return appendJSONString(buf, o.Path)
	case event.ObjSocket:
		buf = appendJSONString(buf, o.DstIP)
		buf = append(buf, ':')
		return strconv.AppendInt(buf, int64(o.DstPort), 10)
	default:
		return appendJSONString(buf, o.Exe)
	}
}

// appendJSONString appends s as the inside of a JSON string literal, escaped
// byte for byte as encoding/json does by default: quote, backslash and
// control bytes, <, > and & (HTML-safe), U+2028/U+2029, and U+FFFD for
// invalid UTF-8.
func appendJSONString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '\\', '"':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	return append(buf, s[start:]...)
}
