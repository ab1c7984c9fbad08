// Package refiner compiles BDL scripts into executable plan metadata and
// decides how much of a paused analysis can be reused when the script
// changes (the Refiner component of Figure 3 in the paper).
//
// Compilation performs the semantic checks the parser cannot: field names
// are validated against the object-type vocabularies of Section III-A,
// budget fields ("time", "hop") are extracted from the where statement, and
// string patterns are compiled once into matchers.
package refiner

import (
	"fmt"
	"regexp"
	"strings"

	"aptrace/internal/bdl"
	"aptrace/internal/event"
)

// Env resolves object IDs and computed attributes during condition
// evaluation. *store.Store satisfies it. ObjectRef hands the object in place,
// in the store's object table: callers read it and never write.
type Env interface {
	ObjectRef(event.ObjID) *event.Object
	IsReadOnlyFile(obj event.ObjID, from, to int64) (bool, error)
	IsWriteThrough(obj event.ObjID, from, to int64) (bool, error)
	FileTimes(obj event.ObjID, from, to int64) (creation, lastMod, lastAccess int64, err error)
}

// Pattern is a compiled BDL string pattern. Per the paper, "=" on strings is
// a regular-expression match; analysts in the paper's case studies write
// glob-style patterns like "*.dll", so '*' and '?' are translated to '.*'
// and '.' and everything else is matched literally. Matching is unanchored
// and case-insensitive ("explorer" matches "explorer.exe", as attack case A1
// requires).
type Pattern struct {
	raw string
	re  *regexp.Regexp
}

// CompilePattern builds a Pattern from a BDL string value.
func CompilePattern(s string) Pattern {
	var sb strings.Builder
	sb.WriteString("(?i)")
	for _, r := range s {
		switch r {
		case '*':
			sb.WriteString(".*")
		case '?':
			sb.WriteString(".")
		default:
			sb.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	return Pattern{raw: s, re: regexp.MustCompile(sb.String())}
}

// Match reports whether the pattern matches v.
func (p Pattern) Match(v string) bool { return p.re.MatchString(v) }

// String returns the original pattern source.
func (p Pattern) String() string { return p.raw }

// fieldClass says which entity a condition field is read from.
type fieldClass uint8

const (
	fieldEvent   fieldClass = iota // action_type, event_id, event_time, amount
	fieldSubject                   // subject_name, subject_pid
	fieldObject                    // exename, path, dst_ip, ... on the node object
)

// cond is one compiled comparison.
type cond struct {
	class fieldClass
	field string // canonical field name
	op    bdl.CmpOp

	// Exactly one of the following value forms is set.
	pat    *Pattern // string pattern
	num    int64    // numeric or time value
	isTime bool     // num holds Unix seconds parsed from a time literal
}

// sharedEventFields are valid in every node condition (Section III-A).
var sharedEventFields = map[string]string{
	"subject_name": "subject_name",
	"subject_pid":  "subject_pid",
	"action_type":  "action_type",
	"type":         "action_type", // Program 1 uses the short alias
	"event_id":     "event_id",
	"event_time":   "event_time",
	"amount":       "amount",
}

// objectFields maps, per node type, the accepted object-specific field names
// to their canonical form.
var objectFields = map[string]map[string]string{
	"proc": {
		"host": "host", "exename": "exename", "pid": "pid",
		"starttime": "starttime", "start_time": "starttime",
	},
	"file": {
		"host": "host", "path": "path", "filename": "filename",
		"last_modification_time": "last_modification_time",
		"last_access_time":       "last_access_time",
		"creation_time":          "creation_time",
	},
	"ip": {
		"host": "host", "src_ip": "src_ip", "srcip": "src_ip",
		"dst_ip": "dst_ip", "dstip": "dst_ip",
		"src_port": "src_port", "dst_port": "dst_port",
		"start_time": "start_time", "starttime": "start_time",
	},
}

var timeValuedFields = map[string]bool{
	"event_time": true, "starttime": true, "start_time": true,
	"last_modification_time": true, "last_access_time": true, "creation_time": true,
}

var numericFields = map[string]bool{
	"subject_pid": true, "event_id": true, "amount": true,
	"pid": true, "src_port": true, "dst_port": true,
}

// compileCond validates and compiles a single comparison for a node of the
// given type ("proc", "file", "ip").
func compileCond(typ string, c *bdl.Cmp) (*cond, error) {
	if len(c.Field.Parts) != 1 {
		return nil, errAt(c, "node conditions use unqualified fields; %q is qualified", c.Field)
	}
	name := strings.ToLower(c.Field.Parts[0])
	out := &cond{op: c.Op}
	if canonical, ok := sharedEventFields[name]; ok {
		out.field = canonical
		switch canonical {
		case "subject_name", "subject_pid":
			out.class = fieldSubject
		default:
			out.class = fieldEvent
		}
	} else if canonical, ok := objectFields[typ][name]; ok {
		out.field = canonical
		out.class = fieldObject
	} else {
		return nil, errAt(c, "unknown field %q for node type %q", name, typ)
	}
	if err := out.setValue(c); err != nil {
		return nil, err
	}
	return out, nil
}

// setValue type-checks and stores the comparison value.
func (cd *cond) setValue(c *bdl.Cmp) error {
	switch c.Val.Kind {
	case bdl.ValString:
		if timeValuedFields[cd.field] {
			unix, err := bdl.ParseTime(c.Val.Str)
			if err != nil {
				return errAt(c, "field %q needs a time value: %v", cd.field, err)
			}
			cd.num, cd.isTime = unix, true
			return nil
		}
		if numericFields[cd.field] {
			return errAt(c, "field %q needs a numeric value, got string %q", cd.field, c.Val.Str)
		}
		if c.Op != bdl.CmpEQ && c.Op != bdl.CmpNE {
			// Ordered comparison on strings: fall back to raw value,
			// compared lexicographically at evaluation time.
			p := CompilePattern(regexp.QuoteMeta(c.Val.Str))
			cd.pat = &p
			return nil
		}
		p := CompilePattern(c.Val.Str)
		cd.pat = &p
		return nil
	case bdl.ValNumber:
		if !numericFields[cd.field] && !timeValuedFields[cd.field] {
			return errAt(c, "field %q does not accept a numeric value", cd.field)
		}
		cd.num = c.Val.Num
		return nil
	case bdl.ValBool:
		return errAt(c, "field %q does not accept a boolean value", cd.field)
	case bdl.ValDuration:
		return errAt(c, "field %q does not accept a duration value", cd.field)
	case bdl.ValIdent:
		// Bare identifiers act as string patterns ("type = file" in
		// Program 2 style conditions).
		p := CompilePattern(c.Val.Str)
		cd.pat = &p
		return nil
	default:
		return errAt(c, "unsupported value")
	}
}

// evalCond evaluates the comparison against a connecting event and the node
// object.
func (cd *cond) eval(e event.Event, nodeID event.ObjID, env Env, from, to int64) (bool, error) {
	nodeObj := env.ObjectRef(nodeID)
	switch cd.class {
	case fieldEvent:
		switch cd.field {
		case "action_type":
			return cd.matchString(e.Action.String()), nil
		case "event_id":
			return cmpInt(int64(e.ID), cd.op, cd.num), nil
		case "event_time":
			return cmpInt(e.Time, cd.op, cd.num), nil
		case "amount":
			return cmpInt(e.Amount, cd.op, cd.num), nil
		}
	case fieldSubject:
		sub := env.ObjectRef(e.Subject)
		switch cd.field {
		case "subject_name":
			return cd.matchString(sub.Exe), nil
		case "subject_pid":
			return cmpInt(int64(sub.PID), cd.op, cd.num), nil
		}
	case fieldObject:
		switch cd.field {
		case "creation_time", "last_modification_time", "last_access_time":
			cr, mod, acc, err := env.FileTimes(nodeID, from, to)
			if err != nil {
				return false, err
			}
			v := cr
			switch cd.field {
			case "last_modification_time":
				v = mod
			case "last_access_time":
				v = acc
			}
			return v != 0 && cmpInt(v, cd.op, cd.num), nil
		}
		if cd.isTime || (cd.pat == nil && numericFields[cd.field]) {
			v, ok := nodeObj.FieldInt(cd.field)
			if !ok {
				return false, nil
			}
			return cmpInt(v, cd.op, cd.num), nil
		}
		v, ok := nodeObj.Field(cd.field)
		if !ok {
			return false, nil
		}
		return cd.matchString(v), nil
	}
	return false, fmt.Errorf("refiner: internal: unhandled field %q", cd.field)
}

func (cd *cond) matchString(v string) bool {
	switch cd.op {
	case bdl.CmpEQ:
		return cd.pat.Match(v)
	case bdl.CmpNE:
		return !cd.pat.Match(v)
	case bdl.CmpLT:
		return v < cd.pat.String()
	case bdl.CmpLE:
		return v <= cd.pat.String()
	case bdl.CmpGT:
		return v > cd.pat.String()
	case bdl.CmpGE:
		return v >= cd.pat.String()
	}
	return false
}

func cmpInt(a int64, op bdl.CmpOp, b int64) bool {
	switch op {
	case bdl.CmpLT:
		return a < b
	case bdl.CmpLE:
		return a <= b
	case bdl.CmpGT:
		return a > b
	case bdl.CmpGE:
		return a >= b
	case bdl.CmpEQ:
		return a == b
	case bdl.CmpNE:
		return a != b
	}
	return false
}

// boolExpr is a compiled condition tree.
type boolExpr struct {
	// Exactly one of leaf or (op, x, y) is set.
	leaf *cond
	op   bdl.LogicOp
	x, y *boolExpr
}

func compileExpr(typ string, e bdl.Expr) (*boolExpr, error) {
	switch n := e.(type) {
	case *bdl.Cmp:
		c, err := compileCond(typ, n)
		if err != nil {
			return nil, err
		}
		return &boolExpr{leaf: c}, nil
	case *bdl.Binary:
		x, err := compileExpr(typ, n.X)
		if err != nil {
			return nil, err
		}
		y, err := compileExpr(typ, n.Y)
		if err != nil {
			return nil, err
		}
		return &boolExpr{op: n.Op, x: x, y: y}, nil
	case *bdl.Paren:
		return compileExpr(typ, n.X)
	default:
		return nil, fmt.Errorf("refiner: unsupported expression %T", e)
	}
}

func (b *boolExpr) eval(e event.Event, nodeID event.ObjID, env Env, from, to int64) (bool, error) {
	if b.leaf != nil {
		return b.leaf.eval(e, nodeID, env, from, to)
	}
	x, err := b.x.eval(e, nodeID, env, from, to)
	if err != nil {
		return false, err
	}
	if b.op == bdl.OpAnd && !x {
		return false, nil
	}
	if b.op == bdl.OpOr && x {
		return true, nil
	}
	return b.y.eval(e, nodeID, env, from, to)
}

// NodeMatcher is a compiled tracking-statement node: it matches (event,
// object) pairs during backtracking.
type NodeMatcher struct {
	Type event.ObjectType
	Var  string
	expr *boolExpr
	src  *bdl.Node
}

// compileNode compiles a (non-wildcard) tracking node.
func compileNode(n *bdl.Node) (*NodeMatcher, error) {
	typ, ok := event.ParseObjectType(n.Type)
	if !ok {
		return nil, errPos(n.Pos, "unknown node type %q", n.Type)
	}
	expr, err := compileExpr(n.Type, n.Cond)
	if err != nil {
		return nil, err
	}
	return &NodeMatcher{Type: typ, Var: n.Var, expr: expr, src: n}, nil
}

// Match reports whether the node matches: the object identified by nodeID
// has the declared type and the condition list holds for the connecting
// event e and that object. For the starting point the node object is the
// alert event's flow destination; for every later node in the chain it is
// the discovered event's flow source.
func (m *NodeMatcher) Match(e event.Event, nodeID event.ObjID, env Env, from, to int64) (bool, error) {
	if env.ObjectRef(nodeID).Type != m.Type {
		return false, nil
	}
	return m.expr.eval(e, nodeID, env, from, to)
}

func errAt(c *bdl.Cmp, format string, args ...any) error {
	return errPos(c.Pos(), format, args...)
}

func errPos(p bdl.Pos, format string, args ...any) error {
	return fmt.Errorf("bdl:%s: %s", p, fmt.Sprintf(format, args...))
}
