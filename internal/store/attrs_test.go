package store

import (
	"testing"

	"aptrace/internal/event"
)

// buildAttrs creates a store exercising the computed-attribute queries:
//
//	t=100: svc writes /logs/app.log
//	t=200: viewer reads /etc/hosts          (read-only file)
//	t=300: parent starts helper             (write-through candidate)
//	t=310: helper loads /lib/libc.so        (load: ignored for write-through)
//	t=320: parent writes-to helper (inject-style flow out)
//	t=330: helper flows back to parent
//	t=400: exfil reads /secret/plan.doc amount=5000
//	t=500: exfil sends 6000 bytes to 1.2.3.4:443
//	t=600: editor writes /secret/plan.doc
func buildAttrs(t *testing.T) (*Store, map[string]event.ObjID) {
	t.Helper()
	s := New(nil)
	svc := event.Process("h", "svc", 1, 0)
	viewer := event.Process("h", "viewer", 2, 0)
	parent := event.Process("h", "parent", 3, 0)
	helper := event.Process("h", "helper", 4, 290)
	exfil := event.Process("h", "exfil", 5, 0)
	editor := event.Process("h", "editor", 6, 0)
	logf := event.File("h", "/logs/app.log")
	hosts := event.File("h", "/etc/hosts")
	libc := event.File("h", "/lib/libc.so")
	plan := event.File("h", "/secret/plan.doc")
	sock := event.Socket("h", "10.0.0.9", 999, "1.2.3.4", 443)

	add := func(tm int64, sub, obj event.Object, a event.Action, d event.Direction, amt int64) {
		t.Helper()
		if _, err := s.AddEvent(tm, sub, obj, a, d, amt); err != nil {
			t.Fatal(err)
		}
	}
	add(100, svc, logf, event.ActWrite, event.FlowOut, 100)
	add(200, viewer, hosts, event.ActRead, event.FlowIn, 50)
	add(300, parent, helper, event.ActStart, event.FlowOut, 0)
	add(310, helper, libc, event.ActLoad, event.FlowIn, 0)
	add(320, parent, helper, event.ActInject, event.FlowOut, 10)
	add(330, helper, parent, event.ActWrite, event.FlowOut, 10)
	add(400, exfil, plan, event.ActRead, event.FlowIn, 5000)
	add(500, exfil, sock, event.ActSend, event.FlowOut, 6000)
	add(600, editor, plan, event.ActWrite, event.FlowOut, 70)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	ids := map[string]event.ObjID{}
	for name, o := range map[string]event.Object{
		"svc": svc, "viewer": viewer, "parent": parent, "helper": helper,
		"exfil": exfil, "log": logf, "hosts": hosts, "plan": plan, "sock": sock,
	} {
		id, ok := s.Lookup(o)
		if !ok {
			t.Fatalf("lookup %s", name)
		}
		ids[name] = id
	}
	return s, ids
}

func TestIsReadOnlyFile(t *testing.T) {
	s, ids := buildAttrs(t)
	// /etc/hosts is only read: read-only over the whole range.
	if ro, err := s.IsReadOnlyFile(ids["hosts"], 0, 1000); err != nil || !ro {
		t.Errorf("hosts read-only = %v, %v; want true", ro, err)
	}
	// /logs/app.log is written at t=100.
	if ro, _ := s.IsReadOnlyFile(ids["log"], 0, 1000); ro {
		t.Error("app.log must not be read-only")
	}
	// /secret/plan.doc is written at t=600 but only read within [0, 550).
	if ro, _ := s.IsReadOnlyFile(ids["plan"], 0, 550); !ro {
		t.Error("plan.doc must be read-only within [0,550)")
	}
	if ro, _ := s.IsReadOnlyFile(ids["plan"], 0, 1000); ro {
		t.Error("plan.doc must not be read-only over full range")
	}
	// Processes are never read-only files.
	if ro, _ := s.IsReadOnlyFile(ids["svc"], 0, 1000); ro {
		t.Error("process must not be a read-only file")
	}
}

func TestIsWriteThrough(t *testing.T) {
	s, ids := buildAttrs(t)
	// helper only talks to parent (its ActLoad of libc is exempt).
	if wt, err := s.IsWriteThrough(ids["helper"], 0, 1000); err != nil || !wt {
		t.Errorf("helper write-through = %v, %v; want true", wt, err)
	}
	// svc touches a file: not write-through.
	if wt, _ := s.IsWriteThrough(ids["svc"], 0, 1000); wt {
		t.Error("svc must not be write-through")
	}
	// exfil touches file and socket: not write-through.
	if wt, _ := s.IsWriteThrough(ids["exfil"], 0, 1000); wt {
		t.Error("exfil must not be write-through")
	}
	// A process with no events in range is not write-through.
	if wt, _ := s.IsWriteThrough(ids["helper"], 900, 1000); wt {
		t.Error("no-activity range must not be write-through")
	}
	// Files are never write-through.
	if wt, _ := s.IsWriteThrough(ids["log"], 0, 1000); wt {
		t.Error("file must not be write-through")
	}
}

func TestAttrsRequireSealed(t *testing.T) {
	s := New(nil)
	if _, err := s.IsReadOnlyFile(0, 0, 1); err != ErrNotSealed {
		t.Errorf("IsReadOnlyFile err = %v", err)
	}
	if _, err := s.IsWriteThrough(0, 0, 1); err != ErrNotSealed {
		t.Errorf("IsWriteThrough err = %v", err)
	}
}
