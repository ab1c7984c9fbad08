package event

import (
	"fmt"
	"strconv"
	"testing"
	"testing/quick"
)

func TestObjectKeyIdentity(t *testing.T) {
	p1 := Process("h1", "java.exe", 42, 1000)
	p2 := Process("h1", "java.exe", 42, 1000)
	if p1.Key() != p2.Key() {
		t.Error("identical processes must have equal keys")
	}
	// PID reuse: same pid, different start time => different object.
	p3 := Process("h1", "java.exe", 42, 2000)
	if p1.Key() == p3.Key() {
		t.Error("PID reuse must yield distinct keys")
	}
	// Different hosts are different objects.
	p4 := Process("h2", "java.exe", 42, 1000)
	if p1.Key() == p4.Key() {
		t.Error("same process identity on different hosts must differ")
	}

	f1 := File("h1", `C:\Users\a.doc`)
	f2 := File("h1", `C:\Users\a.doc`)
	if f1.Key() != f2.Key() {
		t.Error("identical files must have equal keys")
	}
	if f1.Key() == File("h1", `C:\Users\b.doc`).Key() {
		t.Error("different paths must differ")
	}

	s1 := Socket("h1", "10.0.0.1", 5000, "8.8.8.8", 443)
	s2 := Socket("h1", "10.0.0.1", 5000, "8.8.8.8", 443)
	if s1.Key() != s2.Key() {
		t.Error("identical sockets must have equal keys")
	}
	if s1.Key() == Socket("h1", "10.0.0.1", 5001, "8.8.8.8", 443).Key() {
		t.Error("different src ports must differ")
	}
	// Socket key must not be ambiguous under string concatenation.
	a := Socket("h1", "10.0.0.1", 50, "8.8.8.8", 443)
	b := Socket("h1", "10.0.0.15", 0, "8.8.8.8", 443)
	if a.Key() == b.Key() {
		t.Error("socket keys collide across ip/port boundary")
	}
}

func TestObjectKeyCrossType(t *testing.T) {
	// A file whose path equals a process exe name must not collide.
	f := File("h1", "java.exe")
	p := Process("h1", "java.exe", 0, 0)
	if f.Key() == p.Key() {
		t.Error("file and process with same name must have distinct keys")
	}
}

func TestObjectName(t *testing.T) {
	if got := Process("h", "cmd.exe", 1, 2).Name(); got != "cmd.exe" {
		t.Errorf("process name = %q", got)
	}
	if got := File("h", "/etc/passwd").Name(); got != "/etc/passwd" {
		t.Errorf("file name = %q", got)
	}
	if got := Socket("h", "1.2.3.4", 80, "5.6.7.8", 443).Name(); got != "1.2.3.4:80->5.6.7.8:443" {
		t.Errorf("socket name = %q", got)
	}
}

func TestFileName(t *testing.T) {
	tests := []struct{ path, want string }{
		{`C:\Windows\System32\kernel32.dll`, "kernel32.dll"},
		{"/usr/bin/gcc", "gcc"},
		{"plain.txt", "plain.txt"},
		{"", ""},
	}
	for _, tt := range tests {
		if got := File("h", tt.path).FileName(); got != tt.want {
			t.Errorf("FileName(%q) = %q, want %q", tt.path, got, tt.want)
		}
	}
	if got := Process("h", "x", 0, 0).FileName(); got != "" {
		t.Errorf("FileName on process = %q, want empty", got)
	}
}

func TestFieldAccess(t *testing.T) {
	p := Process("desktop1", "explorer.exe", 77, 900)
	for name, want := range map[string]string{
		"host":    "desktop1",
		"exename": "explorer.exe",
		"pid":     "77",
	} {
		got, ok := p.Field(name)
		if !ok || got != want {
			t.Errorf("proc.Field(%q) = %q,%v want %q", name, got, ok, want)
		}
	}
	if _, ok := p.Field("path"); ok {
		t.Error("proc must not expose file field 'path'")
	}

	f := File("h1", `C:\Sensitive\important.doc`)
	if got, _ := f.Field("filename"); got != "important.doc" {
		t.Errorf("file.Field(filename) = %q", got)
	}
	if got, _ := f.Field("path"); got != `C:\Sensitive\important.doc` {
		t.Errorf("file.Field(path) = %q", got)
	}

	s := Socket("h1", "10.1.1.1", 4000, "168.120.11.118", 443)
	if got, _ := s.Field("dst_ip"); got != "168.120.11.118" {
		t.Errorf("ip.Field(dst_ip) = %q", got)
	}
	if got, _ := s.Field("dstip"); got != "168.120.11.118" {
		t.Errorf("ip.Field(dstip alias) = %q", got)
	}

	if v, ok := p.FieldInt("pid"); !ok || v != 77 {
		t.Errorf("FieldInt(pid) = %d,%v", v, ok)
	}
	if v, ok := s.FieldInt("dst_port"); !ok || v != 443 {
		t.Errorf("FieldInt(dst_port) = %d,%v", v, ok)
	}
	if _, ok := f.FieldInt("path"); ok {
		t.Error("path is not numeric")
	}
}

// Property: key equality must exactly match field-wise identity for processes.
func TestProcessKeyProperty(t *testing.T) {
	f := func(h1, e1 string, pid1 int32, s1 int64, h2, e2 string, pid2 int32, s2 int64) bool {
		a := Process(h1, e1, pid1, s1)
		b := Process(h2, e2, pid2, s2)
		same := h1 == h2 && e1 == e2 && pid1 == pid2 && s1 == s2
		return (a.Key() == b.Key()) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// concatKey is the socket key Object.Key built before the ports moved into
// N1 and N2: each endpoint concatenated into one "ip:port" string. With
// concatString, ObjectKey.String's rendering of such a key, it is the oracle
// for the socket key's identity and text.
func concatKey(o Object) ObjectKey {
	return ObjectKey{
		Type: o.Type, Host: o.Host,
		A: o.SrcIP + ":" + strconv.Itoa(int(o.SrcPort)),
		B: o.DstIP + ":" + strconv.Itoa(int(o.DstPort)),
	}
}

func concatString(k ObjectKey) string {
	return fmt.Sprintf("ip %s:%s->%s", k.Host, k.A, k.B)
}

// TestSocketKeyMatchesConcatOracle: over every pair of sockets drawn from
// endpoints built to collide under concatenation — IPs that contain ':' or
// end in digits, ports that continue them — two keys are equal exactly when
// their concatenated keys are, and every key renders the oracle's text.
func TestSocketKeyMatchesConcatOracle(t *testing.T) {
	ips := []string{"10.0.0.1", "10.0.0.15", "10.0.0.1:5", "::1", "::", "fe80::1:50", ""}
	ports := []uint16{0, 1, 5, 15, 50, 65535}
	var socks []Object
	for _, host := range []string{"", "h1"} {
		for _, src := range ips {
			for _, sp := range ports {
				socks = append(socks, Socket(host, src, sp, ips[int(sp)%len(ips)], 443), Socket(host, src, sp, "::1", sp))
			}
		}
	}
	keys, oracle := make([]ObjectKey, len(socks)), make([]ObjectKey, len(socks))
	for i, o := range socks {
		keys[i], oracle[i] = o.Key(), concatKey(o)
		if got, want := keys[i].String(), concatString(oracle[i]); got != want {
			t.Fatalf("%+v renders %q, the concatenated key %q", o, got, want)
		}
	}
	for i := range socks {
		for j := range socks {
			if (keys[i] == keys[j]) != (oracle[i] == oracle[j]) {
				t.Fatalf("%+v and %+v: keys equal %v, concatenated keys equal %v", socks[i], socks[j], keys[i] == keys[j], oracle[i] == oracle[j])
			}
		}
	}
}

// TestKeyAllocatesNothing: a key is built from the object's own fields, for
// every object type.
func TestKeyAllocatesNothing(t *testing.T) {
	for _, o := range []Object{Process("h", "java.exe", 42, 1000), File("h", "/etc/passwd"), Socket("h", "10.0.0.1", 5000, "8.8.8.8", 443)} {
		var k ObjectKey
		if n := testing.AllocsPerRun(100, func() { k = o.Key() }); n != 0 {
			t.Errorf("%v: Key allocates %.0f times", o.Type, n)
		}
		_ = k
	}
}
