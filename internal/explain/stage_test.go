package explain

import (
	"time"

	"aptrace/internal/bdl"
	"aptrace/internal/event"
)

// The run loop's emitters as the tests call them: each stages one record the
// way the executor does (stamp relative to the stage's base, strings in the
// stage's side table) and hands the stage to the recorder.

func (r *Recorder) stage1(at time.Time, d Decision, clause, detail string) {
	s := Stage{Base: at}
	rec := s.Add(d.Kind, 0)
	*rec = d
	if clause != "" {
		rec.Clause = s.Str(clause)
	}
	if detail != "" {
		rec.Detail = s.Str(detail)
	}
	r.Consume(&s)
}

func (r *Recorder) RunStart(at time.Time, alert event.Event, node event.ObjID, from, to int64) {
	r.stage1(at, Decision{Kind: KindRunStart, Event: alert.ID, Node: node, Begin: from, Finish: to}, "", "")
}

func (r *Recorder) EdgeAdded(at time.Time, ev event.EventID, node, peer event.ObjID, hop int, wb, wf int64, boost int) {
	r.stage1(at, Decision{Kind: KindEdgeAdded, Event: ev, Node: node, Peer: peer, Hop: int32(hop), Begin: wb, Finish: wf, Boost: int8(boost)}, "", "")
}

func (r *Recorder) EdgeDedup(at time.Time, ev event.EventID, node event.ObjID) {
	r.stage1(at, Decision{Kind: KindEdgeDedup, Event: ev, Node: node}, "", "")
}

func (r *Recorder) EdgeDropped(at time.Time, ev event.EventID, node, peer event.ObjID) {
	r.stage1(at, Decision{Kind: KindEdgeDropped, Event: ev, Node: node, Peer: peer}, "", "")
}

func (r *Recorder) EdgeHostFiltered(at time.Time, ev event.EventID, node, peer event.ObjID, host string) {
	r.stage1(at, Decision{Kind: KindEdgeHostFiltered, Event: ev, Node: node, Peer: peer}, "", host)
}

func (r *Recorder) EdgeWhereRejected(at time.Time, ev event.EventID, node, peer event.ObjID, clause string, pos bdl.Pos) {
	r.stage1(at, Decision{Kind: KindEdgeWhereRejected, Event: ev, Node: node, Peer: peer, Begin: int64(pos.Line), Finish: int64(pos.Col)}, clause, "")
}

func (r *Recorder) EdgeHopBudget(at time.Time, ev event.EventID, node, peer event.ObjID, hop, limit int) {
	r.stage1(at, Decision{Kind: KindEdgeHopBudget, Event: ev, Node: node, Peer: peer, Hop: int32(hop), Card: int32(limit)}, "", "")
}

func (r *Recorder) WindowEnqueued(at time.Time, node event.ObjID, wb, wf int64, card, state, boost int) {
	r.stage1(at, Decision{Kind: KindWindowEnqueued, Node: node, Begin: wb, Finish: wf, Card: int32(card), State: int16(state), Boost: int8(boost)}, "", "")
}

func (r *Recorder) WindowEmpty(at time.Time, node event.ObjID, wb, wf int64) {
	r.stage1(at, Decision{Kind: KindWindowEmpty, Node: node, Begin: wb, Finish: wf}, "", "")
}

func (r *Recorder) WindowResplit(at time.Time, node event.ObjID, wb, wf int64, card int) {
	r.stage1(at, Decision{Kind: KindWindowResplit, Node: node, Begin: wb, Finish: wf, Card: int32(card)}, "", "")
}

func (r *Recorder) WindowQueried(at time.Time, node event.ObjID, wb, wf int64, rows int) {
	r.stage1(at, Decision{Kind: KindWindowQueried, Node: node, Begin: wb, Finish: wf, Card: int32(rows)}, "", "")
}

func (r *Recorder) WindowAbandoned(at time.Time, node event.ObjID, wb, wf int64, reason string) {
	r.stage1(at, Decision{Kind: KindWindowAbandoned, Node: node, Begin: wb, Finish: wf}, "", reason)
}
