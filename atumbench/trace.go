package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"atum"
	"atum/internal/actor"
	"atum/internal/core"
	"atum/internal/group"
)

// The traced run measures layers from outside the program: a wrapper around
// each node (registered with the runtime in the node's place) and around the
// actor.Env the node is started with. Nothing inside the engine is touched;
// tracing inside the program is ROADMAP item 2.

type spanKind uint8

const (
	spanPublish spanKind = iota
	spanRecvSMR
	spanRecvGroup
	spanRecvOther
	spanTimer
	spanSend
	spanDeliver
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"bcast.publish", "node.receive.smr", "node.receive.group",
	"node.receive.other", "node.timer", "env.send", "bcast.deliver",
}

// msgClass groups node-level message types by the layer that owns them.
type msgClass uint8

const (
	classSMR msgClass = iota
	classGroup
	classCtrl
	numClasses
)

var classNames = [numClasses]string{"smr", "group", "ctrl"}

// classify maps a node-level message to its class by Go type. A type the
// switch does not know is counted as control traffic and reported by name,
// so a new message type shows up in the trace instead of vanishing.
func classify(msg actor.Message) (c msgClass, known bool) {
	switch msg.(type) {
	case core.SMREnvelope:
		return classSMR, true
	case group.GroupMsg:
		return classGroup, true
	case core.Heartbeat, core.JoinContact, core.ContactInfo, core.JoinRequest, core.Renounce:
		return classCtrl, true
	}
	return classCtrl, false
}

var recvSpanOf = [numClasses]spanKind{spanRecvSMR, spanRecvGroup, spanRecvOther}

// span is one timed interval at a layer boundary. parent is the index of the
// enclosing span in the same lane, -1 at top level or when not kept; key is the
// broadcast index for publish and deliver spans, -1 otherwise.
type span struct {
	kind       spanKind
	parent     int32
	key        int32
	start, end int64 // ns since the tracer's base
}

type aggregate struct {
	count   int64
	totalNs int64
	selfNs  int64 // total minus the part child spans cover
}

type classCount struct {
	msgs, bytes int64
}

// laneSpans is how many spans a lane keeps; later ones still feed the
// aggregates. The first 50 broadcasts of every workload fit.
const laneSpans = 4096

// lane is one node's (or the harness's) trace state. A lane is only touched
// from the goroutine that runs its node, so the tcp workload needs no locks.
type lane struct {
	tr      *tracer
	spans   []span // the first laneSpans spans of the window, preallocated
	dropped int64
	open    [4]struct {
		slot    int32 // index in spans, -1 when the span is not kept
		start   int64
		childNs int64
	}
	depth int

	agg          [numSpanKinds]aggregate
	sent         [numClasses]classCount
	carriers     int64 // sent group messages that were batch carriers
	carrierItems int64 // logical messages inside those carriers
	callbacks    int64
	unknown      map[string]int64
}

type tracer struct {
	base  time.Time
	lanes []*lane // [0] is the harness, [1+i] node column i
	// keep turns span retention on at the window start, so the buffers hold
	// the first measured broadcasts and not the system's growth. Aggregates
	// and counts run throughout.
	keep atomic.Bool
}

func newTracer(cols int) *tracer {
	tr := &tracer{base: time.Now(), lanes: make([]*lane, cols+1)}
	for i := range tr.lanes {
		tr.lanes[i] = &lane{tr: tr, spans: make([]span, 0, laneSpans)}
	}
	return tr
}

func (tr *tracer) harness() *lane { return tr.lanes[0] }

// node returns the lane of node column col; a nil tracer (untraced run) has
// no lanes.
func (tr *tracer) node(col int) *lane {
	if tr == nil {
		return nil
	}
	return tr.lanes[col+1]
}

func (l *lane) begin(kind spanKind, key int) {
	now := int64(time.Since(l.tr.base))
	parent := int32(-1)
	if l.depth > 0 {
		parent = l.open[l.depth-1].slot
	}
	o := &l.open[l.depth]
	o.slot, o.start, o.childNs = -1, now, 0
	if l.tr.keep.Load() {
		if len(l.spans) < cap(l.spans) {
			o.slot = int32(len(l.spans))
			l.spans = append(l.spans, span{kind: kind, parent: parent, key: int32(key), start: now})
		} else {
			l.dropped++
		}
	}
	l.depth++
}

func (l *lane) end(kind spanKind) {
	now := int64(time.Since(l.tr.base))
	l.depth--
	o := l.open[l.depth]
	dur := now - o.start
	if o.slot >= 0 {
		l.spans[o.slot].end = now
	}
	a := &l.agg[kind]
	a.count++
	a.totalNs += dur
	a.selfNs += dur - o.childNs
	if l.depth > 0 {
		l.open[l.depth-1].childNs += dur
	}
}

// wrap returns an actor.Node that forwards to inner and records a span
// around every callback; a nil tracer returns inner itself.
func (tr *tracer) wrap(col int, inner actor.Node) actor.Node {
	if tr == nil {
		return inner
	}
	return &tracedNode{inner: inner, ln: tr.node(col)}
}

type tracedNode struct {
	inner actor.Node
	ln    *lane
}

func (w *tracedNode) Start(env actor.Env) { w.inner.Start(&tracedEnv{Env: env, ln: w.ln}) }
func (w *tracedNode) Stop()               { w.inner.Stop() }

func (w *tracedNode) Receive(from atum.NodeID, msg actor.Message) {
	c, known := classify(msg)
	if !known {
		w.ln.noteUnknown(msg)
	}
	k := recvSpanOf[c]
	w.ln.begin(k, -1)
	w.inner.Receive(from, msg)
	w.ln.end(k)
}

func (w *tracedNode) Timer(id actor.TimerID, data any) {
	w.ln.begin(spanTimer, -1)
	w.inner.Timer(id, data)
	w.ln.end(spanTimer)
}

// tracedEnv times and counts every send the node issues; the span is a
// child of the callback that issued it. The other Env methods are
// forwarded by embedding.
type tracedEnv struct {
	actor.Env
	ln *lane
}

func (e *tracedEnv) Send(to atum.NodeID, msg actor.Message) {
	c, known := classify(msg)
	if !known {
		e.ln.noteUnknown(msg)
	}
	cc := &e.ln.sent[c]
	cc.msgs++
	cc.bytes += int64(actor.SizeOf(msg))
	if gm, ok := msg.(group.GroupMsg); ok && len(gm.Payload) > 0 {
		// Only batch carriers decode as a batch frame: every other payload
		// starts with the wire envelope's 0x00 magic.
		if items, err := group.UnpackBatch(gm); err == nil {
			e.ln.carriers++
			e.ln.carrierItems += int64(len(items))
		}
	}
	e.ln.begin(spanSend, -1)
	e.Env.Send(to, msg)
	e.ln.end(spanSend)
}

// LearnAddr forwards actor.AddrBook to runtimes that keep one (tcp).
func (e *tracedEnv) LearnAddr(id atum.NodeID, addr string) {
	if ab, ok := e.Env.(actor.AddrBook); ok {
		ab.LearnAddr(id, addr)
	}
}

func (l *lane) noteUnknown(msg actor.Message) {
	if l.unknown == nil {
		l.unknown = make(map[string]int64)
	}
	l.unknown[fmt.Sprintf("%T", msg)]++
}

// traceSummary is the tracer's lanes summed.
type traceSummary struct {
	agg          [numSpanKinds]aggregate
	sent         [numClasses]classCount
	carriers     int64
	carrierItems int64
	callbacks    int64
	dropped      int64
	unknown      map[string]int64
}

func (tr *tracer) summary() traceSummary {
	s := traceSummary{unknown: map[string]int64{}}
	for _, l := range tr.lanes {
		l.addTo(&s)
	}
	return s
}

// addTo adds the lane's counts and times to s. It must run where the lane
// is not being written: anywhere on the simulator, inside the node's loop on
// the real-time runtime.
func (l *lane) addTo(s *traceSummary) {
	for k := range l.agg {
		s.agg[k].count += l.agg[k].count
		s.agg[k].totalNs += l.agg[k].totalNs
		s.agg[k].selfNs += l.agg[k].selfNs
	}
	for c := range l.sent {
		s.sent[c].msgs += l.sent[c].msgs
		s.sent[c].bytes += l.sent[c].bytes
	}
	s.carriers += l.carriers
	s.carrierItems += l.carrierItems
	s.callbacks += l.callbacks
	s.dropped += l.dropped
	for name, n := range l.unknown {
		s.unknown[name] += n
	}
}

// since returns s minus an earlier summary of the same tracer: the counts
// and times of the measured window alone, growth excluded.
func (s traceSummary) since(before traceSummary) traceSummary {
	out := s
	for k := range out.agg {
		out.agg[k].count -= before.agg[k].count
		out.agg[k].totalNs -= before.agg[k].totalNs
		out.agg[k].selfNs -= before.agg[k].selfNs
	}
	for c := range out.sent {
		out.sent[c].msgs -= before.sent[c].msgs
		out.sent[c].bytes -= before.sent[c].bytes
	}
	out.carriers -= before.carriers
	out.carrierItems -= before.carrierItems
	out.callbacks -= before.callbacks
	return out
}

// unknownTypes lists the message types classify did not know, sorted.
func (s traceSummary) unknownTypes() []string {
	names := make([]string, 0, len(s.unknown))
	for n := range s.unknown {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// traceBroadcasts is how many broadcasts' spans the trace file holds.
const traceBroadcasts = 50

type spanJSON struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Lane   int    `json:"lane"` // 0 harness, 1+i node column i
	Bcast  *int32 `json:"bcast,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeFile writes the window's aggregates s and, for the first
// traceBroadcasts broadcasts, every publish and deliver span with the chain
// of spans that caused it.
func (tr *tracer) writeFile(path, workload string, s traceSummary) error {
	type aggJSON struct {
		Name    string  `json:"name"`
		Count   int64   `json:"count"`
		TotalUs float64 `json:"total_us"`
		SelfUs  float64 `json:"self_us"`
	}
	type classJSON struct {
		Class string `json:"class"`
		Msgs  int64  `json:"msgs"`
		Bytes int64  `json:"bytes"`
	}
	doc := struct {
		Workload     string           `json:"workload"`
		Aggregates   []aggJSON        `json:"aggregates"`
		Sent         []classJSON      `json:"sent"`
		Carriers     int64            `json:"carriers"`
		CarrierItems int64            `json:"carrier_items"`
		UnknownTypes map[string]int64 `json:"unknown_types"`
		SpansDropped int64            `json:"spans_beyond_buffer"`
		Spans        []spanJSON       `json:"spans"`
	}{Workload: workload, Carriers: s.carriers, CarrierItems: s.carrierItems,
		UnknownTypes: s.unknown, SpansDropped: s.dropped}
	for k := spanKind(0); k < numSpanKinds; k++ {
		a := s.agg[k]
		doc.Aggregates = append(doc.Aggregates, aggJSON{spanNames[k], a.count,
			float64(a.totalNs) / 1e3, float64(a.selfNs) / 1e3})
	}
	for c := msgClass(0); c < numClasses; c++ {
		doc.Sent = append(doc.Sent, classJSON{classNames[c], s.sent[c].msgs, s.sent[c].bytes})
	}
	for li, l := range tr.lanes {
		keep := make([]bool, len(l.spans))
		for i, sp := range l.spans {
			if (sp.kind == spanPublish || sp.kind == spanDeliver) && sp.key < traceBroadcasts {
				for j := int32(i); j >= 0 && !keep[j]; j = l.spans[j].parent {
					keep[j] = true
				}
			}
		}
		for i, sp := range l.spans {
			if !keep[i] {
				continue
			}
			js := spanJSON{ID: fmt.Sprintf("%d:%d", li, i), Name: spanNames[sp.kind],
				Lane: li, Start: sp.start, End: sp.end}
			if sp.parent >= 0 {
				js.Parent = fmt.Sprintf("%d:%d", li, sp.parent)
			}
			if sp.key >= 0 {
				k := sp.key
				js.Bcast = &k
			}
			doc.Spans = append(doc.Spans, js)
		}
	}
	sort.SliceStable(doc.Spans, func(i, j int) bool { return doc.Spans[i].Start < doc.Spans[j].Start })
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
