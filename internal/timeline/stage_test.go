package timeline

import (
	"time"

	"aptrace/internal/event"
	"aptrace/internal/explain"
)

// The executor's window lifecycle as the tests call it: each helper stages
// the records the run loop stages for that step (stamps relative to t0) and
// hands the stage to the lane.

func window(s *explain.Stage, kind explain.Kind, at time.Time, obj event.ObjID, begin, finish int64, card int) *explain.Decision {
	s.Base = t0
	d := s.Add(kind, int64(at.Sub(t0)))
	d.Node, d.Begin, d.Finish, d.Card = obj, begin, finish, int32(card)
	return d
}

func (r *Recorder) Enqueued(at time.Time, obj event.ObjID, begin, finish int64, card int) {
	var s explain.Stage
	window(&s, explain.KindWindowEnqueued, at, obj, begin, finish, card)
	r.Consume(&s)
}

func (r *Recorder) Resplit(at time.Time, obj event.ObjID, begin, finish int64, card int) {
	var s explain.Stage
	window(&s, explain.KindWindowResplit, at, obj, begin, finish, card)
	r.Consume(&s)
}

func (r *Recorder) Query(start, end time.Time, obj event.ObjID, begin, finish int64, rows int) {
	var s explain.Stage
	window(&s, explain.KindQueryStart, start, obj, begin, finish, 0)
	window(&s, explain.KindWindowQueried, end, obj, begin, finish, rows)
	r.Consume(&s)
}

func (r *Recorder) Abandoned(at time.Time, obj event.ObjID, begin, finish int64, reason string) {
	var s explain.Stage
	window(&s, explain.KindWindowAbandoned, at, obj, begin, finish, 0).Detail = s.Str(reason)
	r.Consume(&s)
}

func (r *Recorder) ObserveQueryCost(rows, buckets int64, cost time.Duration) {
	s := explain.Stage{Base: t0}
	d := s.Add(explain.KindCharge, 0)
	d.Begin, d.Finish = buckets, int64(cost)
	r.Consume(&s)
}

func (r *Recorder) ObserveScatter(fanout int, shardRows []int64) {
	s := explain.Stage{Base: t0, Rows: shardRows}
	d := s.Add(explain.KindScatter, 0)
	d.Card, d.Finish = int32(fanout), int64(len(shardRows))
	r.Consume(&s)
}
