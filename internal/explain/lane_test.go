package explain

import (
	"math"
	"strings"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/telemetry"
)

// testTarget is the tests' gap target: its stall limit, 3 s, lets them
// provoke stalls with small simulated gaps.
const testTarget = time.Second

// session is a profiling session as the tests hold one: the logs bound as its
// lanes, in the order newLane made them, and the registry they count stalls in.
type session struct {
	reg   *telemetry.Registry
	lanes []*Recorder
}

// lane is a lane as the tests drive it: the lane's log, and the stage the
// steps below put their records through. Each helper stages what the run loop
// (or, for the out-of-loop steps, the session or a harness) records for that
// step, stamps relative to t0, and hands it to the log.
type lane struct {
	*Recorder
	stage Stage
}

// newLane binds a fresh log of the given ring capacity (0 = default) as the
// session's next lane.
func (p *session) newLane(name string, capacity int) *lane {
	log := New(capacity, p.reg)
	p.lanes = append(p.lanes, log)
	log.Bind(int64(len(p.lanes)), name, DefaultStallFactor*testTarget)
	return &lane{Recorder: log}
}

func (r *lane) LaneID() int64 {
	return r.Progress().ID
}

// Stats is the lane's entry of its session's report.
func (r *lane) Stats() Progress { return r.Progress() }

func (r *lane) flush() {
	r.Consume(&r.stage)
	r.stage.Reset()
}

func (r *lane) window(kind Kind, at time.Time, obj event.ObjID, begin, finish int64, card int) *Decision {
	r.stage.Base = t0
	d := r.stage.Add(kind, int64(at.Sub(t0)))
	d.Node, d.Begin, d.Finish, d.Card = obj, begin, finish, int32(card)
	return d
}

func (r *lane) Enqueued(at time.Time, obj event.ObjID, begin, finish int64, card int) {
	r.window(KindWindowEnqueued, at, obj, begin, finish, card)
	r.flush()
}

func (r *lane) Resplit(at time.Time, obj event.ObjID, begin, finish int64, card int) {
	r.window(KindWindowResplit, at, obj, begin, finish, card)
	r.flush()
}

func (r *lane) Query(start, end time.Time, obj event.ObjID, begin, finish int64, rows int) {
	r.stage.Base = t0
	d := r.stage.Queried(int64(start.Sub(t0)), int64(end.Sub(t0)))
	d.Node, d.Begin, d.Finish, d.Card = obj, begin, finish, int32(rows)
	r.flush()
}

func (r *lane) Abandoned(at time.Time, obj event.ObjID, begin, finish int64, reason string) {
	r.window(KindWindowAbandoned, at, obj, begin, finish, 0).Detail = r.stage.Str(reason)
	r.flush()
}

func (r *lane) ObserveQueryCost(rows, buckets int64, cost time.Duration) {
	r.stage.Charge(buckets, cost)
}

func (r *lane) RunStart(at time.Time, alert event.EventID) {
	r.stage1(at, Decision{Kind: KindRunStart, Event: alert}, "", "")
}

// Update records an added edge that is not the alert's.
func (r *lane) Update(at time.Time) {
	r.stage1(at, Decision{Kind: KindEdgeAdded, Event: math.MaxUint64}, "", "")
}

func (r *lane) RunEnd(at time.Time, reason string) {
	r.stage1(at, Decision{Kind: KindRunEnd}, "", reason)
}

func (r *lane) Pause(at time.Time) {
	r.stage1(at, Decision{Kind: KindPause}, "", "")
}

func (r *lane) Resume(at time.Time) {
	r.stage1(at, Decision{Kind: KindResume}, "", "")
}

// PlanUpdate records a script swap whose trace detail is "decision: delta".
func (r *lane) PlanUpdate(at time.Time, detail string) {
	decision, delta, _ := strings.Cut(detail, ": ")
	r.stage1(at, Decision{Kind: KindPlanUpdate}, decision, delta)
}
