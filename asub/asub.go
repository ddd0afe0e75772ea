// Package asub is ASub, the topic-based publish/subscribe service of paper
// §4.1, layered on Atum.
//
// Topic-based pub/sub is essentially equivalent to group communication: a
// topic is a group, subscribing is joining, publishing is broadcasting. ASub
// is therefore a thin veneer: CreateTopic maps to Bootstrap, Subscribe to
// Join, Unsubscribe to Leave, and Publish to Broadcast.
package asub

import (
	"atum"
)

// Event is one published event delivered to a subscriber.
type Event struct {
	Topic     string
	Publisher atum.NodeID
	Data      []byte
}

// Participant is one node's handle on a topic.
type Participant struct {
	topic string
	node  *atum.Node
}

// Options configures a participant.
type Options struct {
	// OnEvent receives published events (required to observe anything).
	OnEvent func(Event)
}

// New wraps an Atum configuration for the given topic and returns the node
// callbacks plus the participant handle. The caller supplies the Atum node
// (so the application controls the runtime); wire it like:
//
//	var p *asub.Participant
//	cfg.Callbacks = asub.Wire(topic, opts, &p̂...)
type wiring struct {
	opts  Options
	topic string
}

// Wire returns Atum callbacks that deliver ASub events, and a constructor
// that binds the participant once the node exists.
func Wire(topic string, opts Options) (atum.Callbacks, func(*atum.Node) *Participant) {
	w := &wiring{opts: opts, topic: topic}
	cb := atum.Callbacks{
		Deliver: func(d atum.Delivery) {
			if w.opts.OnEvent != nil {
				w.opts.OnEvent(Event{Topic: topic, Publisher: d.Origin, Data: d.Data})
			}
		},
	}
	return cb, func(n *atum.Node) *Participant {
		return &Participant{topic: topic, node: n}
	}
}

// Topic returns the participant's topic.
func (p *Participant) Topic() string { return p.topic }

// CreateTopic creates the topic (Atum bootstrap): the caller becomes the
// topic's first subscriber and the contact point for others.
func (p *Participant) CreateTopic() error { return p.node.Bootstrap() }

// Subscribe joins the topic through any existing subscriber.
func (p *Participant) Subscribe(contact atum.Identity) error { return p.node.Join(contact) }

// Unsubscribe leaves the topic.
func (p *Participant) Unsubscribe() error { return p.node.Leave() }

// Publish broadcasts an event to every subscriber of the topic. Errors are
// the broadcast surface's typed errors (docs/API.md): atum.ErrNotMember
// when the participant is not (yet or anymore) subscribed, and
// atum.ErrBroadcastTooLarge for oversized events — check with errors.Is and
// re-publish after Subscribe completes, rather than assuming the event went
// out.
func (p *Participant) Publish(data []byte) error {
	return p.node.BroadcastWith(data, atum.BroadcastOpts{})
}

// Subscribed reports whether the participant currently receives events.
func (p *Participant) Subscribed() bool { return p.node.IsMember() }

// Identity returns the participant's node identity (usable as a contact).
func (p *Participant) Identity() atum.Identity { return p.node.Identity() }
