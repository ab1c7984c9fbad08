package audit

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"strconv"
	"time"
	"unicode/utf8"

	"aptrace/internal/event"
)

// ETW-style format: one empty XML element per line, attribute names
// modeled on the rendered form of ETW kernel provider events. The encoder
// writes an explicit end tag; the parser also reads the self-closing form.
//
//	<Event Time="2019-04-16T06:15:14Z" Action="write" Dir="out" Amount="512"
//	       SubjectHost="desktop1" SubjectExe="excel.exe" SubjectPid="412" SubjectStart="1555000000"
//	       ObjType="file" ObjHost="desktop1" Path="C:\x\y.doc"></Event>

type etwEvent struct {
	XMLName      xml.Name `xml:"Event"`
	Time         string   `xml:"Time,attr"`
	Action       string   `xml:"Action,attr"`
	Dir          string   `xml:"Dir,attr"`
	Amount       int64    `xml:"Amount,attr"`
	SubjectHost  string   `xml:"SubjectHost,attr"`
	SubjectExe   string   `xml:"SubjectExe,attr"`
	SubjectPid   int32    `xml:"SubjectPid,attr"`
	SubjectStart int64    `xml:"SubjectStart,attr"`
	ObjType      string   `xml:"ObjType,attr"`
	ObjHost      string   `xml:"ObjHost,attr"`
	// Process object.
	Exe   string `xml:"Exe,attr,omitempty"`
	Pid   int32  `xml:"Pid,attr,omitempty"`
	Start int64  `xml:"Start,attr,omitempty"`
	// File object.
	Path string `xml:"Path,attr,omitempty"`
	// Socket object.
	SrcIP   string `xml:"SrcIP,attr,omitempty"`
	SrcPort uint16 `xml:"SrcPort,attr,omitempty"`
	DstIP   string `xml:"DstIP,attr,omitempty"`
	DstPort uint16 `xml:"DstPort,attr,omitempty"`
}

// appendETW appends the ETW line of e, whose endpoints are subj and obj, to
// buf without the newline: the bytes xml.Marshal gives for etwEvent, with
// the object's own attributes omitted when zero, as their omitempty tags
// say. On error buf is returned as it came.
func appendETW(buf []byte, e *event.Event, subj, obj *event.Object) ([]byte, error) {
	if obj.Type > event.ObjSocket {
		return buf, fmt.Errorf("audit: etw: invalid object type %d", obj.Type)
	}
	buf = time.Unix(e.Time, 0).UTC().AppendFormat(append(buf, `<Event Time="`...), time.RFC3339)
	buf = etwAttr(append(buf, '"'), "Action", e.Action.String(), false)
	buf = etwInt(etwAttr(buf, "Dir", e.Dir.String(), false), "Amount", e.Amount, false)
	buf = etwAttr(etwAttr(buf, "SubjectHost", subj.Host, false), "SubjectExe", subj.Exe, false)
	buf = etwInt(etwInt(buf, "SubjectPid", int64(subj.PID), false), "SubjectStart", subj.Start, false)
	buf = etwAttr(etwAttr(buf, "ObjType", obj.Type.String(), false), "ObjHost", obj.Host, false)
	const omitEmpty = true // the object's own attributes
	switch obj.Type {
	case event.ObjProcess:
		buf = etwInt(etwAttr(buf, "Exe", obj.Exe, omitEmpty), "Pid", int64(obj.PID), omitEmpty)
		buf = etwInt(buf, "Start", obj.Start, omitEmpty)
	case event.ObjFile:
		buf = etwAttr(buf, "Path", obj.Path, omitEmpty)
	case event.ObjSocket:
		buf = etwInt(etwAttr(buf, "SrcIP", obj.SrcIP, omitEmpty), "SrcPort", int64(obj.SrcPort), omitEmpty)
		buf = etwInt(etwAttr(buf, "DstIP", obj.DstIP, omitEmpty), "DstPort", int64(obj.DstPort), omitEmpty)
	}
	return append(buf, "></Event>"...), nil
}

// etwInt appends the attribute name="v", or nothing if v is 0 and
// omitEmpty is set.
func etwInt(buf []byte, name string, v int64, omitEmpty bool) []byte {
	if omitEmpty && v == 0 {
		return buf
	}
	buf = append(append(append(buf, ' '), name...), `="`...)
	return append(strconv.AppendInt(buf, v, 10), '"')
}

// etwAttr appends the attribute name="v", or nothing if v is empty and
// omitEmpty is set. It escapes v as xml.Marshal escapes an attribute value,
// which is what xml.EscapeText writes; a value of bytes 0x20–0x7F with no
// markup character is appended as it is.
func etwAttr(buf []byte, name, v string, omitEmpty bool) []byte {
	if omitEmpty && v == "" {
		return buf
	}
	buf = append(append(append(buf, ' '), name...), `="`...)
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\'' || c == '&' || c == '<' || c == '>' {
			w := bytes.NewBuffer(append(buf, v[:i]...))
			xml.EscapeText(w, []byte(v[i:]))
			return append(w.Bytes(), '"')
		}
	}
	return append(append(buf, v...), '"')
}

func parseETW(line string) (Record, error) {
	var ev etwEvent
	if err := xml.Unmarshal([]byte(line), &ev); err != nil {
		return Record{}, fmt.Errorf("audit: etw parse: %w", err)
	}
	t, err := time.Parse(time.RFC3339, ev.Time)
	if err != nil {
		return Record{}, fmt.Errorf("audit: etw time: %w", err)
	}
	act, ok := event.ParseAction(ev.Action)
	if !ok {
		return Record{}, fmt.Errorf("audit: etw: unknown action %q", ev.Action)
	}
	var dir event.Direction
	switch ev.Dir {
	case "out":
		dir = event.FlowOut
	case "in":
		dir = event.FlowIn
	default:
		return Record{}, fmt.Errorf("audit: etw: bad direction %q", ev.Dir)
	}
	r := Record{
		Time:    t.Unix(),
		Action:  act,
		Dir:     dir,
		Amount:  ev.Amount,
		Subject: event.Process(ev.SubjectHost, ev.SubjectExe, ev.SubjectPid, ev.SubjectStart),
	}
	switch ev.ObjType {
	case "proc":
		r.Object = event.Process(ev.ObjHost, ev.Exe, ev.Pid, ev.Start)
	case "file":
		r.Object = event.File(ev.ObjHost, ev.Path)
	case "ip":
		r.Object = event.Socket(ev.ObjHost, ev.SrcIP, ev.SrcPort, ev.DstIP, ev.DstPort)
	default:
		return Record{}, fmt.Errorf("audit: etw: unknown object type %q", ev.ObjType)
	}
	return r, nil
}
