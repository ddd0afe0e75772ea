package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"
	"time"

	"atum/internal/actor"
	"atum/internal/ids"
	"atum/internal/smr"
)

// simTrace hashes every send, receive and timer fire of a simulated system,
// each as (virtual time, from, to, message type, wire size); a timer fire
// stands in its timer ID for the size.
type simTrace struct {
	h      *harness
	digest hash.Hash
	events int
}

func (tr *simTrace) add(kind string, from, to ids.NodeID, v any, size int) {
	tr.events++
	fmt.Fprintf(tr.digest, "%s %d %d>%d %T %d\n", kind, tr.h.net.Now(), from, to, v, size)
}

// traceEnv taps a node's sends on their way into the simulator.
type traceEnv struct {
	actor.Env
	tr *simTrace
}

func (e traceEnv) Send(to ids.NodeID, msg actor.Message) {
	e.tr.add("send", e.Self(), to, msg, actor.SizeOf(msg))
	e.Env.Send(to, msg)
}

// traceNode taps what the simulator hands a node: messages and timer fires.
type traceNode struct {
	wrappedNode
	tr *simTrace
}

func (n traceNode) Receive(from ids.NodeID, msg actor.Message) {
	n.tr.add("recv", from, n.cfg.Identity.ID, msg, actor.SizeOf(msg))
	n.Node.Receive(from, msg)
}

func (n traceNode) Timer(id actor.TimerID, data any) {
	n.tr.add("timer", n.cfg.Identity.ID, n.cfg.Identity.ID, data, int(id))
	n.Node.Timer(id, data)
}

// TestSimTraceGolden pins the simulator's event order. It grows a 24-node
// system, sends broadcasts, has one member leave and a new node join, and
// compares a digest of every send, receive and timer fire with a committed
// one. Same seed, same code: same digest, event for event. A change to the
// scheduler that reorders two events moves the digest; so does any change to
// what the protocol sends, which must then update the digest on purpose.
func TestSimTraceGolden(t *testing.T) {
	want := map[smr.Mode]string{
		smr.ModeSync:  "a6fc7251749352106a416bfa451ec1191b5e1be5b20d3b5080447d38b878848c",
		smr.ModeAsync: "43e03cacb71ab853d72105e8a2ee59694f8dd5af19010e014e061bcb6a97b24a",
	}
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(t, mode, 5, nil)
			tr := &simTrace{h: h, digest: sha256.New()}
			h.wrapNode = func(n *Node) actor.Node {
				wrap := func(_ *Node, env actor.Env) actor.Env { return traceEnv{Env: env, tr: tr} }
				return traceNode{wrappedNode: wrappedNode{Node: n, wrap: wrap}, tr: tr}
			}
			nodes := h.bootstrapSystem(mode, 24, 240*time.Second)
			h.net.Run(h.net.Now() + 10*time.Second)
			for i := 0; i < 4; i++ {
				if err := nodes[(7*i)%len(nodes)].BroadcastWith([]byte(fmt.Sprintf("golden-%d", i)), BroadcastOpts{}); err != nil {
					t.Fatal(err)
				}
				h.net.Run(h.net.Now() + time.Second)
			}
			if err := nodes[5].Leave(); err != nil {
				t.Fatal(err)
			}
			h.net.Run(h.net.Now() + 10*time.Second)
			joiner := h.addNode(mode)
			h.net.Run(h.net.Now() + 10*time.Millisecond)
			if err := joiner.Join(nodes[0].Identity()); err != nil {
				t.Fatal(err)
			}
			h.net.Run(h.net.Now() + 30*time.Second)
			if !joiner.IsMember() {
				t.Fatal("joiner is not a member 30 s after Join")
			}
			got := hex.EncodeToString(tr.digest.Sum(nil))
			t.Logf("%d events traced, digest %s", tr.events, got)
			if got != want[mode] {
				t.Errorf("trace digest = %s, want %s", got, want[mode])
			}
		})
	}
}
