// Fixture: egress.go is the one core file that legitimately sits below the
// egress boundary, so its direct primitives are exempt wholesale.
package core

import "atum/internal/group"

func (n *Node) sendGroup(to uint64, msg any) {
	n.env.Send(to, msg)
	group.Send(n.sendNow, to, msg)
	n.sendGroupQuantized(to, msg)
}

func (n *Node) sendNodeMsg(to uint64, msg any) { n.sendNow(to, msg) }
