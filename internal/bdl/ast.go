package bdl

import (
	"fmt"
	"strings"
	"time"
)

// Script is the parsed form of a BDL script: general constraints, the
// tracking declaration, the optional where statement, optional prioritize
// statements, and the output specification.
type Script struct {
	// General constraints (optional).
	From, To *TimeLit // "from"/"to" date range
	Hosts    []string // "in" host list

	// Forward selects forward (impact) tracking instead of backward
	// (provenance) tracking: the analysis follows where the starting
	// point's data went rather than where it came from.
	Forward bool

	// Tracking declaration: Track[0] is the starting point, Track[last]
	// the end point (possibly a wildcard), everything between the
	// intermediate points.
	Track []*Node

	// Where statement (optional).
	Where Expr

	// Prioritize statements (optional, Program 2 in the paper).
	Prioritize []*Prioritize

	// Output path (optional).
	Output string
}

// Start returns the starting-point node.
func (s *Script) Start() *Node { return s.Track[0] }

// End returns the end-point node.
func (s *Script) End() *Node { return s.Track[len(s.Track)-1] }

// Intermediates returns the intermediate nodes (may be empty).
func (s *Script) Intermediates() []*Node {
	if len(s.Track) <= 2 {
		return nil
	}
	return s.Track[1 : len(s.Track)-1]
}

// TimeLit is a date/time literal with both its raw spelling and its parsed
// Unix-seconds value.
type TimeLit struct {
	Pos  Pos
	Raw  string
	Unix int64
}

// Node is one point in the tracking statement: "type var[conditions]" or the
// wildcard "*".
type Node struct {
	Pos      Pos
	Wildcard bool
	Type     string // "proc", "file", or "ip"; empty for wildcard
	Var      string // user-chosen variable name; may be empty for wildcard
	Cond     Expr   // nil for wildcard
}

// Prioritize is a quantity-based prioritization statement:
// "prioritize [target] <- [source]". During backtracking, paths where the
// source pattern flows into the target pattern are explored first.
type Prioritize struct {
	Pos    Pos
	Target Expr // pattern of the downstream (later) side
	Source Expr // pattern of the upstream (earlier) side
}

// Expr is a boolean condition tree over comparisons.
type Expr interface {
	exprNode()
	// Pos returns the source position of the leftmost token of the
	// expression.
	Pos() Pos
}

// LogicOp is a boolean connective.
type LogicOp uint8

const (
	OpAnd LogicOp = iota
	OpOr
)

// String returns "and" or "or".
func (op LogicOp) String() string {
	if op == OpAnd {
		return "and"
	}
	return "or"
}

// Binary is a boolean combination of two expressions. "and" binds tighter
// than "or", matching the usual convention.
type Binary struct {
	Op   LogicOp
	X, Y Expr
}

func (*Binary) exprNode() {}

// Pos returns the position of the left operand.
func (b *Binary) Pos() Pos { return b.X.Pos() }

// Paren is an explicitly parenthesized sub-expression. It only affects
// precedence; evaluation passes through to X. It is kept in the AST (rather
// than discarded at parse time) so the canonical printer reproduces the
// analyst's grouping.
type Paren struct {
	X Expr
}

func (*Paren) exprNode() {}

// Pos returns the position of the inner expression.
func (p *Paren) Pos() Pos { return p.X.Pos() }

// CmpOp is a comparator operator in a condition.
type CmpOp uint8

const (
	CmpLT CmpOp = iota
	CmpLE
	CmpGT
	CmpGE
	CmpEQ
	CmpNE
)

var cmpNames = [...]string{"<", "<=", ">", ">=", "=", "!="}

// String returns the operator's source spelling.
func (op CmpOp) String() string { return cmpNames[op] }

// Cmp is a single comparison: field op value.
type Cmp struct {
	Field FieldRef
	Op    CmpOp
	Val   Value
}

func (*Cmp) exprNode() {}

// Pos returns the position of the field reference.
func (c *Cmp) Pos() Pos { return c.Field.Pos }

// FieldRef is a possibly-qualified attribute reference such as "path",
// "proc.exename", "proc.dst.isReadonly", "time", or "hop".
type FieldRef struct {
	Pos   Pos
	Parts []string
}

// String joins the parts with dots.
func (f FieldRef) String() string { return strings.Join(f.Parts, ".") }

// ValueKind discriminates condition values.
type ValueKind uint8

const (
	ValString ValueKind = iota
	ValNumber
	ValDuration
	ValBool
	ValIdent // bare identifier value, e.g. "size" in Program 2's "amount >= size"
)

// Value is a literal on the right-hand side of a comparison.
type Value struct {
	Pos  Pos
	Kind ValueKind
	Str  string        // ValString, ValIdent
	Num  int64         // ValNumber
	Dur  time.Duration // ValDuration
	Bool bool          // ValBool
}

// Quote renders a string as a BDL string literal. BDL escapes are minimal —
// only backslash and double quote; every other byte is verbatim (Windows
// paths like "C:\Users" appear unescaped in scripts). Go's %q would escape
// control bytes in a way the BDL lexer does not unescape, breaking the
// parse/format fixpoint.
func Quote(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for _, r := range s {
		switch r {
		case '\\', '"':
			sb.WriteByte('\\')
		}
		sb.WriteRune(r)
	}
	sb.WriteByte('"')
	return sb.String()
}

// String renders the value in source form.
func (v Value) String() string {
	switch v.Kind {
	case ValString:
		return Quote(v.Str)
	case ValNumber:
		return fmt.Sprintf("%d", v.Num)
	case ValDuration:
		return formatDuration(v.Dur)
	case ValBool:
		return fmt.Sprintf("%t", v.Bool)
	case ValIdent:
		return v.Str
	default:
		return "?"
	}
}

func formatDuration(d time.Duration) string {
	switch {
	case d%(24*time.Hour) == 0 && d >= 24*time.Hour:
		return fmt.Sprintf("%dd", d/(24*time.Hour))
	case d%time.Hour == 0 && d >= time.Hour:
		return fmt.Sprintf("%dh", d/time.Hour)
	case d%time.Minute == 0 && d >= time.Minute:
		return fmt.Sprintf("%dmins", d/time.Minute)
	default:
		return fmt.Sprintf("%ds", d/time.Second)
	}
}

// Walk calls fn on e and every sub-expression, stopping a branch when fn
// returns false.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch n := e.(type) {
	case *Binary:
		Walk(n.X, fn)
		Walk(n.Y, fn)
	case *Paren:
		Walk(n.X, fn)
	}
}

// timeFormats are the accepted spellings of BDL time literals, matching the
// paper's examples "04/02/2019" and "04/16/2019:06:15:14".
var timeFormats = []string{
	"01/02/2006:15:04:05",
	"01/02/2006 15:04:05",
	"2006-01-02T15:04:05",
	"2006-01-02 15:04:05",
	"01/02/2006",
	"2006-01-02",
}

// ParseTime parses a BDL time literal into Unix seconds (UTC).
func ParseTime(s string) (int64, error) {
	for _, f := range timeFormats {
		if t, err := time.ParseInLocation(f, s, time.UTC); err == nil {
			return t.Unix(), nil
		}
	}
	return 0, fmt.Errorf("unrecognized time %q (want MM/DD/YYYY or MM/DD/YYYY:HH:MM:SS)", s)
}

// parseDurationLit converts a DURATION token text such as "10mins" into a
// time.Duration. The lexer guarantees the shape digits+unit.
func parseDurationLit(text string) (time.Duration, error) {
	i := 0
	for i < len(text) && text[i] >= '0' && text[i] <= '9' {
		i++
	}
	var n int64
	for _, c := range text[:i] {
		n = n*10 + int64(c-'0')
	}
	unit := text[i:]
	switch unit {
	case "s", "sec", "secs", "second", "seconds":
		return time.Duration(n) * time.Second, nil
	case "m", "min", "mins", "minute", "minutes":
		return time.Duration(n) * time.Minute, nil
	case "h", "hr", "hrs", "hour", "hours":
		return time.Duration(n) * time.Hour, nil
	case "d", "day", "days":
		return time.Duration(n) * 24 * time.Hour, nil
	default:
		return 0, fmt.Errorf("unknown duration unit %q", unit)
	}
}
