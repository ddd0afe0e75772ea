// Pub/sub: ASub on a simulated cluster. One participant creates a topic,
// others subscribe, and events published to the topic reach every
// subscriber (paper §4.1: topics ≅ groups).
package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"atum"
	"atum/asub"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pubsub:", err)
		os.Exit(1)
	}
}

func run() error {
	cluster := atum.NewSimCluster(atum.SimOptions{Seed: 7})
	const topic = "go-middleware"

	var participants []*asub.Participant
	for i := 0; i < 4; i++ {
		idx := i
		cb, bind := asub.Wire(topic, asub.Options{
			OnEvent: func(ev asub.Event) {
				fmt.Printf("subscriber %d got %q from %v on %q\n", idx+1, ev.Data, ev.Publisher, ev.Topic)
			},
		})
		node := cluster.AddNode(cb)
		participants = append(participants, bind(node))
	}
	cluster.Run(10 * time.Millisecond)

	if err := participants[0].CreateTopic(); err != nil {
		return err
	}
	for _, p := range participants[1:] {
		if err := p.Subscribe(participants[0].Identity()); err != nil {
			return err
		}
		if !cluster.RunUntil(p.Subscribed, time.Minute) {
			return fmt.Errorf("subscribe timed out")
		}
	}

	// Publish errors are typed (docs/API.md): a publisher that is not (or
	// no longer) subscribed gets ErrNotMember instead of a silent loss.
	if err := participants[1].Publish([]byte("volatile groups ship!")); err != nil {
		if errors.Is(err, atum.ErrNotMember) {
			return fmt.Errorf("publisher lost its subscription mid-publish: %w", err)
		}
		return err
	}
	if err := participants[1].Publish([]byte("tick: prices updated")); err != nil {
		return err
	}
	cluster.Run(10 * time.Second)
	return nil
}
