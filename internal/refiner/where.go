package refiner

import (
	"strings"
	"time"

	"aptrace/internal/bdl"
	"aptrace/internal/event"
)

// WhereFilter is the compiled where statement: a keep-predicate over
// candidate objects. Per the paper, "for any system object that does not
// meet the constraints in the where statement, it will be deleted from the
// tracking analysis without further exploration".
//
// Field forms accepted in where conditions:
//
//	time <= 10mins            – analysis time budget (extracted, not a predicate)
//	hop <= 25                 – path length budget (extracted)
//	proc.exename != "explorer" – object condition, applies to proc objects only
//	file.path != "*.dll"       – object condition, applies to file objects only
//	ip.dst_ip = "10.*"         – object condition, applies to sockets only
//	amount >= 4096             – condition on the connecting event
//	proc.dst.isReadonly = true – computed attribute of the connecting event's
//	proc.dst.isWriteThrough = true  flow destination (Program 3)
//
// A typed condition is vacuously true for objects of other types, so
// conjunctions like `file.path != "*.dll" and proc.exename != "findstr.exe"`
// work as analysts expect.
type WhereFilter struct {
	root *whereExpr
}

type whereExpr struct {
	leaf *whereCond
	op   bdl.LogicOp
	x, y *whereExpr
	// src is the BDL expression this node was compiled from, kept so the
	// explain layer can report the exact clause (text and position) that
	// rejected a candidate.
	src bdl.Expr
}

type whereCond struct {
	typ      string // "proc", "file", "ip"; "" for event-level conditions
	computed string // "isreadonly" / "iswritethrough" for proc.dst.* conditions
	cond     *cond  // nil for computed conditions
	op       bdl.CmpOp
	boolVal  bool
}

type budgets struct {
	time time.Duration
	hop  int
}

// compileWhere splits budgets off the top-level conjunction and compiles the
// remaining tree into a WhereFilter. Budget fields below an "or" are
// rejected: the paper defines them as global termination conditions.
func compileWhere(e bdl.Expr) (*WhereFilter, budgets, error) {
	var b budgets
	root, err := compileWhereExpr(e, &b, true)
	if err != nil {
		return nil, b, err
	}
	if root == nil {
		return nil, b, nil // the where statement held only budgets
	}
	return &WhereFilter{root: root}, b, nil
}

func compileWhereExpr(e bdl.Expr, b *budgets, topAnd bool) (*whereExpr, error) {
	switch n := e.(type) {
	case *bdl.Binary:
		childTop := topAnd && n.Op == bdl.OpAnd
		x, err := compileWhereExpr(n.X, b, childTop)
		if err != nil {
			return nil, err
		}
		y, err := compileWhereExpr(n.Y, b, childTop)
		if err != nil {
			return nil, err
		}
		// Budget conjuncts compile to nil; collapse them away.
		switch {
		case x == nil && y == nil:
			return nil, nil
		case x == nil:
			return y, nil
		case y == nil:
			return x, nil
		}
		return &whereExpr{op: n.Op, x: x, y: y, src: n}, nil

	case *bdl.Paren:
		// Parentheses under 'and' preserve top-level-ness only when the
		// whole group is one budget or one condition tree.
		return compileWhereExpr(n.X, b, topAnd)

	case *bdl.Cmp:
		name := strings.ToLower(n.Field.Parts[0])
		if name == "time" || name == "hop" {
			if !topAnd {
				return nil, errAt(n, "%q is a termination budget and cannot appear under 'or'", name)
			}
			if n.Op != bdl.CmpLT && n.Op != bdl.CmpLE {
				return nil, errAt(n, "%q only supports '<' or '<='", name)
			}
			if name == "time" {
				if n.Val.Kind != bdl.ValDuration {
					return nil, errAt(n, "'time' needs a duration value such as 10mins")
				}
				b.time = n.Val.Dur
			} else {
				if n.Val.Kind != bdl.ValNumber || n.Val.Num <= 0 {
					return nil, errAt(n, "'hop' needs a positive number")
				}
				b.hop = int(n.Val.Num)
			}
			return nil, nil
		}
		wc, err := compileWhereCond(n)
		if err != nil {
			return nil, err
		}
		return &whereExpr{leaf: wc, src: n}, nil

	default:
		return nil, errPos(e.Pos(), "unsupported where expression")
	}
}

func compileWhereCond(n *bdl.Cmp) (*whereCond, error) {
	parts := n.Field.Parts
	name := strings.ToLower(parts[0])

	// Event-level: amount.
	if len(parts) == 1 {
		if name != "amount" {
			return nil, errAt(n, "where conditions must qualify fields with a type (e.g. proc.exename); bare %q is not valid", name)
		}
		c, err := compileCond("proc", n) // amount is a shared event field
		if err != nil {
			return nil, err
		}
		return &whereCond{cond: c}, nil
	}

	if _, ok := objectFields[name]; !ok {
		return nil, errAt(n, "unknown type qualifier %q (want proc, file, or ip)", name)
	}

	// Computed attribute: proc.dst.isReadonly / proc.dst.isWriteThrough.
	if len(parts) == 3 {
		if strings.ToLower(parts[1]) != "dst" {
			return nil, errAt(n, "unknown qualifier %q (only 'dst' computed attributes are supported)", parts[1])
		}
		attr := strings.ToLower(parts[2])
		if attr != "isreadonly" && attr != "iswritethrough" {
			return nil, errAt(n, "unknown computed attribute %q (want isReadonly or isWriteThrough)", parts[2])
		}
		if n.Val.Kind != bdl.ValBool {
			return nil, errAt(n, "%s compares against true/false", n.Field)
		}
		if n.Op != bdl.CmpEQ && n.Op != bdl.CmpNE {
			return nil, errAt(n, "%s only supports '=' and '!='", n.Field)
		}
		return &whereCond{typ: name, computed: attr, op: n.Op, boolVal: n.Val.Bool}, nil
	}
	if len(parts) != 2 {
		return nil, errAt(n, "field %q has too many qualifiers", n.Field)
	}

	// Typed object condition: rewrite to an unqualified cmp and reuse the
	// node-condition compiler for validation.
	sub := &bdl.Cmp{
		Field: bdl.FieldRef{Pos: n.Field.Pos, Parts: parts[1:]},
		Op:    n.Op,
		Val:   n.Val,
	}
	c, err := compileCond(name, sub)
	if err != nil {
		return nil, err
	}
	return &whereCond{typ: name, cond: c}, nil
}

// NumConstraints counts the leaf conditions in the filter, which is what
// Table I tallies as heuristics.
func (w *WhereFilter) NumConstraints() int {
	if w == nil {
		return 0
	}
	var count func(*whereExpr) int
	count = func(e *whereExpr) int {
		if e == nil {
			return 0
		}
		if e.leaf != nil {
			return 1
		}
		return count(e.x) + count(e.y)
	}
	return count(w.root)
}

// FailingClause re-walks the tree for a candidate that Keep already rejected
// and returns the text and position of the deciding clause: for an 'and' it
// descends into the false side, for an 'or' the whole group is the reason.
// Evaluation errors are ignored — the initial Keep call surfaced them.
func (w *WhereFilter) FailingClause(e event.Event, obj event.ObjID, env Env, from, to int64) (string, bdl.Pos) {
	if w == nil || w.root == nil {
		return "", bdl.Pos{}
	}
	x := w.root
	for x.leaf == nil {
		if x.op == bdl.OpOr {
			// Every disjunct is false; the group as a whole is the reason.
			break
		}
		a, err := x.x.eval(e, obj, env, from, to)
		if err != nil {
			return "", bdl.Pos{}
		}
		if !a {
			x = x.x
		} else {
			x = x.y
		}
	}
	if x.src == nil {
		return "", bdl.Pos{}
	}
	return bdl.FormatExpr(x.src), x.src.Pos()
}

// Source returns the canonical BDL text of the compiled filter tree (budget
// clauses excluded — they were split off at compile time). Two filters with
// equal Source make identical keep/delete decisions, which is what result
// caches fingerprint on. A nil or budget-only filter renders as "".
func (w *WhereFilter) Source() string {
	if w == nil || w.root == nil || w.root.src == nil {
		return ""
	}
	return bdl.FormatExpr(w.root.src)
}

// Keep decides whether the candidate object reached through connecting
// event e should stay in the analysis. from/to bound computed-attribute
// queries to the analysis range.
func (w *WhereFilter) Keep(e event.Event, obj event.ObjID, env Env, from, to int64) (bool, error) {
	if w == nil || w.root == nil {
		return true, nil
	}
	return w.root.eval(e, obj, env, from, to)
}

func (x *whereExpr) eval(e event.Event, obj event.ObjID, env Env, from, to int64) (bool, error) {
	if x.leaf != nil {
		return x.leaf.eval(e, obj, env, from, to)
	}
	a, err := x.x.eval(e, obj, env, from, to)
	if err != nil {
		return false, err
	}
	if x.op == bdl.OpAnd && !a {
		return false, nil
	}
	if x.op == bdl.OpOr && a {
		return true, nil
	}
	return x.y.eval(e, obj, env, from, to)
}

func (c *whereCond) eval(e event.Event, obj event.ObjID, env Env, from, to int64) (bool, error) {
	// Computed attributes inspect the connecting event's flow destination.
	if c.computed != "" {
		var v bool
		var err error
		switch c.computed {
		case "isreadonly":
			v, err = env.IsReadOnlyFile(e.Dst(), from, to)
		case "iswritethrough":
			v, err = env.IsWriteThrough(e.Dst(), from, to)
		}
		if err != nil {
			return false, err
		}
		res := v == c.boolVal
		if c.op == bdl.CmpNE {
			res = !res
		}
		return res, nil
	}
	// Typed conditions are vacuously true for other object types.
	if c.typ != "" {
		typ, _ := event.ParseObjectType(c.typ)
		if env.ObjectRef(obj).Type != typ {
			return true, nil
		}
	}
	return c.cond.eval(e, obj, env, from, to)
}
