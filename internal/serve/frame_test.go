package serve

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/graph"
	"aptrace/internal/store"
)

// updateEvent is the payload of one SSE "update" frame as a client decodes
// it, and as the frame was encoded before the append encoder.
type updateEvent struct {
	Seq     int    `json:"seq"`
	EventID uint64 `json:"event_id"`
	Subject string `json:"subject"`
	Object  string `json:"object"`
	Action  string `json:"action"`
	NewNode bool   `json:"new_node"`
	Edges   int    `json:"edges"`
	At      string `json:"at"`
}

// objLabel names an object for the update stream: the reference the frame
// encoder's appendObjLabel is held to.
func objLabel(o event.Object) string {
	switch o.Type {
	case event.ObjFile:
		return o.Path
	case event.ObjSocket:
		return fmt.Sprintf("%s:%d", o.DstIP, o.DstPort)
	default:
		return o.Exe
	}
}

// referenceFrame is the update frame as it was written before the append
// encoder: the payload struct through encoding/json, framed with Sprintf.
func referenceFrame(st *store.Store, seq int, u graph.Update) string {
	ev := updateEvent{
		Seq:     seq,
		EventID: uint64(u.Event.ID),
		Action:  u.Event.Action.String(),
		NewNode: u.NewNode,
		Edges:   u.Edges,
		At:      u.At.UTC().Format(time.RFC3339Nano),
	}
	if st != nil {
		ev.Subject = objLabel(st.Object(u.Event.Subject))
		ev.Object = objLabel(st.Object(u.Event.Object))
	}
	buf, _ := json.Marshal(ev)
	return fmt.Sprintf("event: update\ndata: %s\n\n", buf)
}

// frameStore seals a one-event store whose subject is a process named exe
// and whose object is either a file at label or a socket to label:port, and
// returns it with the event.
func frameStore(t testing.TB, exe, label string, socket bool, port uint16) (*store.Store, event.Event) {
	t.Helper()
	st := store.New(nil)
	obj := event.File("h", label)
	if socket {
		obj = event.Socket("h", "10.0.0.1", 1, label, port)
	}
	id, err := st.AddEvent(100, event.Process("h", exe, 7, 1), obj, event.ActWrite, event.FlowOut, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	ev, ok := st.EventByID(id)
	if !ok {
		t.Fatal("event lost")
	}
	return st, ev
}

// TestUpdateFrameMatchesJSON holds the append encoder to the bytes
// encoding/json produced for the same frame, over every label shape that
// needs escaping and both timestamp shapes.
func TestUpdateFrameMatchesJSON(t *testing.T) {
	whole := time.Date(2019, 4, 1, 12, 30, 5, 0, time.UTC)
	frac := time.Date(2019, 4, 1, 12, 30, 5, 123456700, time.FixedZone("x", 3*3600))
	labels := []string{
		`C:\tmp\payload.bin`,
		`say "hi"`,
		`a<b>&c`,
		"tab\there\nnewline\rcr\bbs\fff",
		"ctl\x00\x01\x1f\x7f",
		"sep\u2028and\u2029",
		"bad\xff\xfeutf8\xc3",
		"trunc\xe2\x80",
		"héllo wörld 世界 🙂",
		"",
	}
	var buf []byte
	seq := 0
	check := func(st *store.Store, u graph.Update) {
		t.Helper()
		seq++
		buf = appendUpdateFrame(buf[:0], st, seq, &u)
		if want := referenceFrame(st, seq, u); string(buf) != want {
			t.Errorf("frame %d differs\n got: %q\nwant: %q", seq, buf, want)
		}
	}
	for _, label := range labels {
		for _, at := range []time.Time{whole, frac, {}} {
			st, ev := frameStore(t, label, label, false, 0)
			check(st, graph.Update{Event: ev, NewNode: true, Edges: 3, At: at})
			st, ev = frameStore(t, "proc.exe", label, true, 443)
			check(st, graph.Update{Event: ev, Edges: 1 << 40, At: at})
			check(nil, graph.Update{Event: ev, At: at}) // no view yet: empty labels
		}
	}
	// An action outside the named set still frames like json.Marshal.
	st, ev := frameStore(t, "p", "f", false, 0)
	ev.Action = event.Action(200)
	check(st, graph.Update{Event: ev, At: frac})
}

// FuzzUpdateFrame drives the same equality over arbitrary labels, ports,
// counters and instants.
func FuzzUpdateFrame(f *testing.F) {
	f.Add("mal.exe", `C:\tmp\payload.bin`, false, uint16(0), 1, 2, true, int64(1554121805), int64(0))
	f.Add("a\"b", "6.6.6.6", true, uint16(443), 17000, 17001, false, int64(1554121805), int64(123456700))
	f.Add("\xff<\u2028>", "\x00&", true, uint16(65535), -1, 0, true, int64(-1), int64(999999999))
	f.Fuzz(func(t *testing.T, exe, label string, socket bool, port uint16, seq, edges int, newNode bool, sec, nsec int64) {
		st, ev := frameStore(t, exe, label, socket, port)
		u := graph.Update{Event: ev, NewNode: newNode, Edges: edges, At: time.Unix(sec, nsec)}
		got := appendUpdateFrame(nil, st, seq, &u)
		if want := referenceFrame(st, seq, u); string(got) != want {
			t.Errorf("frame differs\n got: %q\nwant: %q", got, want)
		}
	})
}
