package graph

import (
	"fmt"
	"io"
	"strings"
	"time"

	"aptrace/internal/event"
)

// escapeDOT escapes a string for use inside a double-quoted DOT ID. DOT's
// quoted-string syntax is not Go's: only backslash and the double quote take
// escapes, and everything else — including non-ASCII — must pass through raw
// (Go's %q would turn it into \uXXXX sequences Graphviz renders literally).
func escapeDOT(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// WriteDOT renders the graph in Graphviz DOT format, the output format the
// paper's BDL "output" clause produces (result.dot). resolve maps object IDs
// to full objects (normally store.Object).
//
// Node shapes follow provenance-graph convention: processes are boxes, files
// are ellipses, sockets are diamonds. The starting-point (alert) edge is
// drawn bold red.
func WriteDOT(w io.Writer, g *Graph, resolve func(event.ObjID) event.Object) error {
	return writeDOT(w, g.Nodes(), g.Edges(), g.Start(), resolve, nil)
}

// DOTAnnotation marks one pruned candidate for WriteDOTAnnotated: an object
// the analysis considered but kept out of the graph, the graph node its
// rejected edge would have attached to (0 if unknown), and a short reason.
type DOTAnnotation struct {
	Obj    event.ObjID
	Peer   event.ObjID
	Reason string
}

// WriteDOTAnnotated renders the graph like WriteDOT plus the prune frontier:
// each annotation becomes a dashed gray node labeled with the exclusion
// reason, connected by a dashed edge to the graph node the candidate would
// have attached to (when that peer is in the graph). The picture answers
// "what did the analysis decide NOT to include, and why" in one view.
func WriteDOTAnnotated(w io.Writer, g *Graph, resolve func(event.ObjID) event.Object, pruned []DOTAnnotation) error {
	return writeDOT(w, g.Nodes(), g.Edges(), g.Start(), resolve, pruned)
}

// writeDOT renders nodes (sorted by object ID) and edges (sorted by event ID).
func writeDOT(w io.Writer, nodes []NodeInfo, edges []event.Event, start event.Event, resolve func(event.ObjID) event.Object, pruned []DOTAnnotation) error {
	var sb strings.Builder
	sb.WriteString("digraph aptrace {\n")
	sb.WriteString("  rankdir=LR;\n")
	sb.WriteString("  node [fontsize=10];\n")

	inGraph := make(map[event.ObjID]bool)
	for _, n := range nodes {
		inGraph[n.ID] = true
		o := resolve(n.ID)
		shape := "ellipse"
		switch o.Type {
		case event.ObjProcess:
			shape = "box"
		case event.ObjSocket:
			shape = "diamond"
		}
		fmt.Fprintf(&sb, "  n%d [label=\"%s\" shape=%s];\n", n.ID, escapeDOT(o.Label()), shape)
	}

	for _, e := range edges {
		attrs := fmt.Sprintf("label=\"%s\"", escapeDOT(fmt.Sprintf("%s @%s",
			e.Action, time.Unix(e.Time, 0).UTC().Format("01/02 15:04:05"))))
		if e.ID == start.ID {
			attrs += ` color=red penwidth=2.5`
		}
		fmt.Fprintf(&sb, "  n%d -> n%d [%s];\n", e.Src(), e.Dst(), attrs)
	}

	for _, p := range pruned {
		o := resolve(p.Obj)
		fmt.Fprintf(&sb, "  x%d [label=\"%s\\n%s\" shape=ellipse style=dashed color=gray fontcolor=gray];\n",
			p.Obj, escapeDOT(o.Label()), escapeDOT(p.Reason))
		if p.Peer != 0 && inGraph[p.Peer] {
			fmt.Fprintf(&sb, "  x%d -> n%d [style=dashed color=gray];\n", p.Obj, p.Peer)
		}
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
