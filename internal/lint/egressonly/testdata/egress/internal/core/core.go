// Fixture: protocol files in the actor package must route sends through
// egress.go's helpers; every direct primitive here is a violation unless
// an allow directive justifies it.
package core

import (
	"atum/internal/actor"
	"atum/internal/group"
)

type Node struct {
	env actor.Env
}

func (n *Node) sendNow(to uint64, msg actor.Message) {
	n.env.Send(to, msg) // want "direct env.Send bypasses egress.go"
}

func (n *Node) sendGroupQuantized(to uint64, msg actor.Message) {
	//atumvet:allow egressonly fixture: a bottom primitive that was not moved into egress.go
	n.env.Send(to, msg)
}

func (n *Node) handle() {
	n.sendNow(1, "x")                   // want "direct sendNow call bypasses egress.go"
	n.sendGroupQuantized(2, "y")        // want "direct sendGroupQuantized call bypasses egress.go"
	group.Send(n.sendNow, 3, "z")       // want "direct group.Send call bypasses egress.go"
	group.SendToNode(n.sendNow, 4, "w") // want "direct group.SendToNode call bypasses egress.go"
	_ = group.Size(5)                   // non-send group helpers stay clean
	n.sendGroup(6, "ok")                // the sanctioned paths stay clean
	n.sendNodeMsg(7, "ok")
	//atumvet:allow egressonly fixture: a per-member attachment no helper has a slot for
	n.sendNow(8, "attached")
}
