package refiner

import (
	"strings"

	"aptrace/internal/bdl"
	"aptrace/internal/event"
)

// PriorityRule is a compiled "prioritize [up] <- [down]" statement
// (Program 2 in the paper): during backtracking, prefer exploring objects
// that emitted an event matching the downstream pattern, and boost candidate
// in-edges matching the upstream pattern. With Conserve set (spelled
// "amount >= size" in BDL), the downstream event's byte amount must be at
// least the upstream event's — the quantity check that separates a real
// exfiltration from, say, Adobe Reader phoning home after opening the file.
type PriorityRule struct {
	Up       *FlowPattern
	Down     *FlowPattern
	Conserve bool
}

// FlowPattern matches one event by the shape of its data flow.
// Conditions:
//
//	type = file|network|ip|proc  – the event's non-subject object type
//	src.<field> = value          – field of the event's flow source object
//	dst.<field> = value          – field of the event's flow destination
//	amount <op> N                – event byte amount (numeric literal)
type FlowPattern struct {
	conds []flowCond
}

type flowCond struct {
	side  string // "type", "src", "dst", "amount"
	field string
	op    bdl.CmpOp
	pat   *Pattern
	num   int64
}

func compilePriority(pr *bdl.Prioritize) (*PriorityRule, error) {
	rule := &PriorityRule{}
	var err error
	if rule.Up, err = compileFlowPattern(pr.Target, rule); err != nil {
		return nil, err
	}
	if rule.Down, err = compileFlowPattern(pr.Source, rule); err != nil {
		return nil, err
	}
	return rule, nil
}

func compileFlowPattern(e bdl.Expr, rule *PriorityRule) (*FlowPattern, error) {
	fp := &FlowPattern{}
	var compile func(bdl.Expr) error
	compile = func(x bdl.Expr) error {
		switch n := x.(type) {
		case *bdl.Binary:
			if n.Op != bdl.OpAnd {
				return errPos(n.Pos(), "prioritize patterns support only 'and'")
			}
			if err := compile(n.X); err != nil {
				return err
			}
			return compile(n.Y)
		case *bdl.Cmp:
			return fp.addCond(n, rule)
		case *bdl.Paren:
			return compile(n.X)
		default:
			return errPos(x.Pos(), "unsupported prioritize expression")
		}
	}
	if err := compile(e); err != nil {
		return nil, err
	}
	return fp, nil
}

func (fp *FlowPattern) addCond(n *bdl.Cmp, rule *PriorityRule) error {
	parts := n.Field.Parts
	head := strings.ToLower(parts[0])
	// A type or an object field is matched against a pattern, which has no
	// order: Match could only treat '<' and its kin as equality.
	pattern := len(parts) == 1 && head == "type" || len(parts) == 2 && (head == "src" || head == "dst")
	if pattern && n.Op != bdl.CmpEQ && n.Op != bdl.CmpNE {
		return errAt(n, "%q supports only '=' and '!='", n.Field)
	}
	switch {
	case len(parts) == 1 && head == "type":
		if n.Val.Kind != bdl.ValIdent && n.Val.Kind != bdl.ValString {
			return errAt(n, "'type' compares against a type name")
		}
		p := CompilePattern(n.Val.Str)
		fp.conds = append(fp.conds, flowCond{side: "type", op: n.Op, pat: &p})
		return nil
	case len(parts) == 1 && head == "amount":
		if n.Val.Kind == bdl.ValIdent && strings.EqualFold(n.Val.Str, "size") {
			// "amount >= size": the flow-conservation check.
			if n.Op != bdl.CmpGE && n.Op != bdl.CmpGT {
				return errAt(n, "'amount' vs 'size' supports '>=' or '>'")
			}
			rule.Conserve = true
			return nil
		}
		if n.Val.Kind != bdl.ValNumber {
			return errAt(n, "'amount' needs a number or the keyword 'size'")
		}
		fp.conds = append(fp.conds, flowCond{side: "amount", op: n.Op, num: n.Val.Num})
		return nil
	case len(parts) == 2 && (head == "src" || head == "dst"):
		if n.Val.Kind != bdl.ValString && n.Val.Kind != bdl.ValIdent {
			return errAt(n, "%s conditions compare against strings", head)
		}
		p := CompilePattern(n.Val.Str)
		fp.conds = append(fp.conds, flowCond{
			side: head, field: strings.ToLower(parts[1]), op: n.Op, pat: &p,
		})
		return nil
	default:
		return errAt(n, "unknown prioritize field %q (want type, amount, src.*, or dst.*)", n.Field)
	}
}

// typeName maps object types to the names accepted by "type =" conditions;
// "network" is an accepted alias for sockets, as in Program 2.
func typeName(t event.ObjectType) []string {
	switch t {
	case event.ObjProcess:
		return []string{"proc", "process"}
	case event.ObjFile:
		return []string{"file"}
	case event.ObjSocket:
		return []string{"ip", "network", "socket"}
	}
	return nil
}

// Match reports whether the pattern matches event e.
func (fp *FlowPattern) Match(e event.Event, env Env) bool {
	for _, c := range fp.conds {
		ok := false
		switch c.side {
		case "type":
			for _, name := range typeName(env.ObjectRef(e.Object).Type) {
				if c.pat.Match(name) {
					ok = true
					break
				}
			}
			if c.op == bdl.CmpNE {
				ok = !ok
			}
		case "amount":
			ok = cmpInt(e.Amount, c.op, c.num)
		case "src", "dst":
			obj := env.ObjectRef(e.Src())
			if c.side == "dst" {
				obj = env.ObjectRef(e.Dst())
			}
			v, has := obj.Field(c.field)
			if !has && c.field == "ip" {
				// "dst.ip" is shorthand for dst_ip on sockets.
				v, has = obj.Field("dst_ip")
				if c.side == "src" {
					v, has = obj.Field("src_ip")
				}
			}
			if !has {
				return false
			}
			ok = c.pat.Match(v)
			if c.op == bdl.CmpNE {
				ok = !ok
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// BoostEdge reports whether a candidate backward edge up should be boosted
// given an already-discovered downstream edge down: up matches the rule's
// upstream pattern, down matches the downstream pattern, and, if Conserve is
// set, the downstream amount is at least the upstream amount.
func (r *PriorityRule) BoostEdge(up, down event.Event, env Env) bool {
	if !r.Up.Match(up, env) || !r.Down.Match(down, env) {
		return false
	}
	if r.Conserve && down.Amount < up.Amount {
		return false
	}
	return true
}
