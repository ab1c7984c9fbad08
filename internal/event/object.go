package event

import (
	"fmt"
	"strconv"
	"strings"
)

// ObjectType discriminates the three kinds of system objects.
type ObjectType uint8

const (
	ObjProcess ObjectType = iota
	ObjFile
	ObjSocket
)

// String returns the BDL type keyword for the object type
// ("proc", "file", or "ip").
func (t ObjectType) String() string {
	switch t {
	case ObjProcess:
		return "proc"
	case ObjFile:
		return "file"
	case ObjSocket:
		return "ip"
	default:
		return fmt.Sprintf("ObjectType(%d)", uint8(t))
	}
}

// ParseObjectType converts a BDL type keyword to an ObjectType.
func ParseObjectType(s string) (ObjectType, bool) {
	switch s {
	case "proc", "process":
		return ObjProcess, true
	case "file":
		return ObjFile, true
	case "ip", "socket", "net":
		return ObjSocket, true
	default:
		return 0, false
	}
}

// Object is a system object: a process instance, a file, or a network socket.
// Only the fields relevant to the object's type are populated.
type Object struct {
	Type ObjectType
	Host string // host the object was observed on

	// Process fields.
	PID   int32  // OS process ID
	Exe   string // executable name, e.g. "java.exe"
	Start int64  // process start time (Unix seconds); disambiguates PID reuse

	// File fields.
	Path string // absolute path

	// Socket fields.
	SrcIP   string
	DstIP   string
	SrcPort uint16
	DstPort uint16
}

// Key returns the canonical, comparable identity of the object. Two Object
// values describe the same system object iff their keys are equal.
func (o Object) Key() ObjectKey {
	switch o.Type {
	case ObjProcess:
		return ObjectKey{Type: o.Type, Host: o.Host, A: o.Exe, N1: int64(o.PID), N2: o.Start}
	case ObjFile:
		return ObjectKey{Type: o.Type, Host: o.Host, A: o.Path}
	case ObjSocket:
		return ObjectKey{Type: o.Type, Host: o.Host, A: o.SrcIP, B: o.DstIP, N1: int64(o.SrcPort), N2: int64(o.DstPort)}
	default:
		return ObjectKey{Type: o.Type, Host: o.Host}
	}
}

// Name returns a short display name: the executable for processes, the base
// path for files, and "src->dst" for sockets.
func (o Object) Name() string {
	switch o.Type {
	case ObjProcess:
		return o.Exe
	case ObjFile:
		return o.Path
	case ObjSocket:
		return fmt.Sprintf("%s:%d->%s:%d", o.SrcIP, o.SrcPort, o.DstIP, o.DstPort)
	default:
		return "?"
	}
}

// Label returns a unique human-readable label including the host,
// suitable for DOT node labels.
func (o Object) Label() string {
	switch o.Type {
	case ObjProcess:
		return fmt.Sprintf("%s/%s[%d]", o.Host, o.Exe, o.PID)
	case ObjFile:
		return fmt.Sprintf("%s:%s", o.Host, o.Path)
	case ObjSocket:
		return fmt.Sprintf("%s:%s", o.Host, o.Name())
	default:
		return o.Host + ":?"
	}
}

// FileName returns the final path element of a file object's path
// (the BDL "filename" field). It returns "" for non-file objects.
func (o Object) FileName() string {
	if o.Type != ObjFile {
		return ""
	}
	p := o.Path
	// Accept both separators: the dataset mixes Windows and Linux hosts.
	if i := strings.LastIndexAny(p, `/\`); i >= 0 {
		return p[i+1:]
	}
	return p
}

// ObjectKey is the comparable canonical identity of an Object.
// A is the primary name (exe, path, or src IP), B the secondary name
// (dst IP for sockets), and N1/N2 numeric disambiguators
// (PID and start time for processes, src and dst port for sockets).
type ObjectKey struct {
	Type ObjectType
	Host string
	A    string
	B    string
	N1   int64
	N2   int64
}

// String renders the key canonically, e.g. "proc host1/chrome.exe#412@1000".
func (k ObjectKey) String() string {
	switch k.Type {
	case ObjProcess:
		return fmt.Sprintf("proc %s/%s#%d@%d", k.Host, k.A, k.N1, k.N2)
	case ObjFile:
		return fmt.Sprintf("file %s:%s", k.Host, k.A)
	case ObjSocket:
		return fmt.Sprintf("ip %s:%s:%d->%s:%d", k.Host, k.A, k.N1, k.B, k.N2)
	default:
		return fmt.Sprintf("obj(%d) %s", uint8(k.Type), k.Host)
	}
}

// Field returns the value of a named BDL attribute of the object, such as
// "exename", "path", or "dst_ip", as a string, plus whether the field applies
// to this object's type. Numeric fields are rendered in decimal; callers that
// need numeric comparison should use FieldInt.
//
// The field vocabulary follows Section III-A of the paper:
//
//	shared: "host"
//	proc:   "exename", "pid", "starttime"
//	file:   "filename", "path", "last_modification_time",
//	        "last_access_time", "creation_time" (the time fields are
//	        event-level in this implementation and resolved by the store)
//	ip:     "src_ip", "dst_ip", "src_port", "dst_port", "start_time"
func (o Object) Field(name string) (string, bool) {
	switch name {
	case "host":
		return o.Host, true
	}
	switch o.Type {
	case ObjProcess:
		switch name {
		case "exename", "name":
			return o.Exe, true
		case "pid":
			return strconv.Itoa(int(o.PID)), true
		case "starttime", "start_time":
			return strconv.FormatInt(o.Start, 10), true
		}
	case ObjFile:
		switch name {
		case "path", "name":
			return o.Path, true
		case "filename":
			return o.FileName(), true
		}
	case ObjSocket:
		switch name {
		case "src_ip", "srcip":
			return o.SrcIP, true
		case "dst_ip", "dstip", "name":
			return o.DstIP, true
		case "src_port", "srcport":
			return strconv.Itoa(int(o.SrcPort)), true
		case "dst_port", "dstport":
			return strconv.Itoa(int(o.DstPort)), true
		}
	}
	return "", false
}

// FieldInt returns the value of a named numeric attribute, plus whether the
// attribute exists and is numeric for this object type.
func (o Object) FieldInt(name string) (int64, bool) {
	switch o.Type {
	case ObjProcess:
		switch name {
		case "pid":
			return int64(o.PID), true
		case "starttime", "start_time":
			return o.Start, true
		}
	case ObjSocket:
		switch name {
		case "src_port", "srcport":
			return int64(o.SrcPort), true
		case "dst_port", "dstport":
			return int64(o.DstPort), true
		}
	}
	return 0, false
}

// Process constructs a process object.
func Process(host, exe string, pid int32, start int64) Object {
	return Object{Type: ObjProcess, Host: host, Exe: exe, PID: pid, Start: start}
}

// File constructs a file object.
func File(host, path string) Object {
	return Object{Type: ObjFile, Host: host, Path: path}
}

// Socket constructs a socket object.
func Socket(host, srcIP string, srcPort uint16, dstIP string, dstPort uint16) Object {
	return Object{Type: ObjSocket, Host: host, SrcIP: srcIP, SrcPort: srcPort, DstIP: dstIP, DstPort: dstPort}
}
