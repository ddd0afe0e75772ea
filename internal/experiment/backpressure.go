package experiment

import (
	"fmt"
	"time"

	"atum"
	"atum/internal/actor"
	"atum/internal/group"
	"atum/internal/smr"
)

// BackpressureResult is the measured outcome of one slow-consumer overload
// configuration.
type BackpressureResult struct {
	Broadcasts int
	// Delivered is the broadcast delivery fraction over all stable members;
	// SlowDelivered is the slow consumer's own fraction — the node overload
	// actually threatens.
	Delivered     float64
	SlowDelivered float64
	// TransportDrops is transport-level loss: the slow consumer's full
	// ingest buffer.
	TransportDrops int64
	// Application-chosen shedding at the senders: pushes withheld at a
	// raised pressure level, plus egress-queue overflow drops.
	AppSheds            uint64
	EgressDropsOverflow uint64
	// MaxDepth is the deepest egress queue observed toward the slow
	// consumer across all flooders and rounds; QueueLimit is the engine's
	// bound (0 for the blind flood, which never enters an egress queue).
	MaxDepth   int
	QueueLimit int
}

// blindFlooder is load that goes around the API: a process on the network
// that is no Atum node and hands chunk-sized messages straight to the
// transport, which is what a sender without flow control amounts to.
type blindFlooder struct{ env actor.Env }

func (f *blindFlooder) Start(env actor.Env)                { f.env = env }
func (f *blindFlooder) Receive(atum.NodeID, actor.Message) {}
func (f *blindFlooder) Timer(actor.TimerID, any)           {}
func (f *blindFlooder) Stop()                              {}

// Backpressure scenario constants: eight flooders each offer ~3 MB/s of
// raw chunks (600 × 512 B per 100 ms round, ~24 MB/s aggregate) to one
// slow consumer whose ingest processes 4 MB/s through a 256 KiB buffer.
// Sent around the API, the flood overloads the buffer and gossip carriers
// drown with the chunks; sent through it (bounded egress queues + pressure
// reads), the senders shed at the source and the protocol traffic fits.
const (
	bpChunkBytes  = 512
	bpChunksRound = 600 // per flooder per round
	bpFlooders    = 8
	bpIngestRate  = int64(4 << 20) // slow consumer: 4 MB/s
	bpIngestQueue = int64(256 << 10)
	bpMaxWindow   = 40 * time.Millisecond // paced drain: 16 items / 40 ms per dest
	bpDrainRounds = 30
	bpSlices      = 10 // flood slices per round (continuous-stream shape)
	// bpPayloadBytes sizes broadcast payloads (incompressible random bytes,
	// hex-doubled on the wire): big enough that gossip carriers genuinely
	// compete with the raw flood for the slow consumer's ingest buffer
	// instead of slipping through its byte-based head-drop as small packets.
	bpPayloadBytes = 512
)

// BackpressureRun measures broadcast delivery and drop placement under a
// slow-consumer raw flood. paced=true sends the flood through SendRawWith
// (bounded egress queues; the flooders pace off their pressure level and tag
// chunks PriorityBulk); paced=false is the blind baseline, a
// flood that bypasses the API: eight processes that are no Atum nodes push
// the same chunks at the same rate straight onto the network. Both
// configurations build the same overlay from the same Config — no raw
// traffic flows while it grows.
func BackpressureRun(n, publishers, rounds int, paced bool, seed int64) (BackpressureResult, error) {
	cl := newCluster(smr.ModeSync, seed, nil, func(cfg *atum.Config) {
		quiet(cfg)
		cfg.GossipMaxBatch = 16
		cfg.EgressMaxFlushWindow = bpMaxWindow
	})
	if err := cl.grow(n, time.Minute, nil); err != nil {
		return BackpressureResult{}, fmt.Errorf("growth to %d nodes failed: %w", n, err)
	}
	out := BackpressureResult{}
	var blind []*blindFlooder
	if paced {
		out.QueueLimit = atum.NodeQueueLimit
	} else {
		for i := 0; i < bpFlooders; i++ {
			f := &blindFlooder{}
			blind = append(blind, f)
			cl.c.Net.Add(atum.NodeID(1<<40+i), f)
		}
	}
	cl.c.Run(5 * time.Second) // settle

	stable := cl.members()
	if len(stable) < publishers+bpFlooders+1 {
		return out, fmt.Errorf("only %d stable members", len(stable))
	}
	pubs := stable[:publishers]
	flooders := stable[publishers : publishers+bpFlooders]
	slow := stable[len(stable)-1]
	slowID := slow.Identity().ID
	cl.c.Net.SetIngestCap(slowID, bpIngestRate, bpIngestQueue)

	before := cl.c.Net.Stats()
	var payloads []string
	var rawSeq uint64
	// floodSlice offers one slice of the per-round flood. The stream is
	// spread over the round in bpSlices steps so the raw traffic and the
	// tick-quantized gossip genuinely share the slow consumer's ingest
	// buffer (a single per-round burst would occupy a disjoint window).
	floodSlice := func() {
		for i, f := range flooders {
			rate := bpChunksRound / bpSlices
			if paced {
				// Application pacing off the pressure level: quarter rate at
				// High, full stop at Critical. The withheld pushes are the
				// "application-chosen shedding" the experiment measures.
				switch f.EgressPressure(slowID) {
				case atum.PressureHigh:
					rate /= 4
				case atum.PressureCritical:
					rate = 0
				}
				out.AppSheds += uint64(bpChunksRound/bpSlices - rate)
			}
			for c := 0; c < rate; c++ {
				if !paced {
					blind[i].env.Send(slowID, group.GroupMsg{Payload: cl.fresh(bpChunkBytes)})
					continue
				}
				rawSeq++
				err := f.SendRawWith(slowID, expChunk{Seq: rawSeq, Data: cl.fresh(bpChunkBytes)}, atum.SendOpts{Priority: atum.PriorityBulk})
				if err != nil {
					out.AppSheds++
				}
			}
		}
	}
	// The flood is sustained background load: it keeps running while the
	// last broadcasts drain, exactly like a permanently slow consumer under
	// a steady stream — only publishing stops.
	for r := 0; r < rounds+bpDrainRounds; r++ {
		if r < rounds {
			payloads = append(payloads, cl.publish(pubs, "bp", r, bpPayloadBytes)...)
		}
		for s := 0; s < bpSlices; s++ {
			floodSlice()
			cl.c.Run(quietRound / bpSlices)
		}
		for _, f := range flooders {
			for _, d := range f.Stats().Egress.Dests {
				if d.Node == slowID && d.Depth > out.MaxDepth {
					out.MaxDepth = d.Depth
				}
			}
		}
	}
	for _, f := range flooders {
		for _, d := range f.Stats().Egress.Dests {
			if d.Node == slowID {
				out.EgressDropsOverflow += d.DroppedOverflow
			}
		}
	}
	out.Broadcasts = len(payloads)
	out.TransportDrops = cl.c.Net.Stats().Sub(before).DroppedOverload
	out.Delivered = cl.delivered(stable, payloads)
	out.SlowDelivered = cl.delivered([]*atum.Node{slow}, payloads)
	return out, nil
}

// Backpressure compares the flow-controlled send path against blind
// flooding under a slow consumer: with pacing, broadcast delivery holds at
// the slow node and raw-flood losses move from the transport (overloaded
// ingest buffer, where they also drown gossip carriers) to the senders
// (application-chosen shedding, bounded queues).
func Backpressure(n, publishers, rounds int, seed int64) Table {
	t := Table{
		Title: fmt.Sprintf("Backpressure: N=%d, %d publishers, %d rounds, %d flooders -> 1 slow consumer (%d KB/s)",
			n, publishers, rounds, bpFlooders, bpIngestRate>>10),
		Header: []string{"config", "slow_delivered", "delivered", "transport_drops",
			"app_sheds", "egress_drops", "max_depth"},
	}
	var blind, paced BackpressureResult
	for _, p := range []bool{false, true} {
		name := "blind flood (bypasses the API)"
		if p {
			name = "paced (pressure reads + bounded queues)"
		}
		r, err := BackpressureRun(n, publishers, rounds, p, seed)
		if err != nil {
			t.Remarks = append(t.Remarks, name+": "+err.Error())
			continue
		}
		if p {
			paced = r
		} else {
			blind = r
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.2f", r.SlowDelivered),
			fmt.Sprintf("%.2f", r.Delivered),
			fmt.Sprintf("%d", r.TransportDrops),
			fmt.Sprintf("%d", r.AppSheds),
			fmt.Sprintf("%d", r.EgressDropsOverflow),
			fmt.Sprintf("%d", r.MaxDepth),
		})
	}
	if blind.Broadcasts > 0 && paced.Broadcasts > 0 {
		t.Remarks = append(t.Remarks, fmt.Sprintf(
			"slow-consumer delivery %.2f -> %.2f; transport overload drops %d -> %d, application shedding %d -> %d",
			blind.SlowDelivered, paced.SlowDelivered,
			blind.TransportDrops, paced.TransportDrops,
			blind.AppSheds+blind.EgressDropsOverflow,
			paced.AppSheds+paced.EgressDropsOverflow))
		t.Remarks = append(t.Remarks, fmt.Sprintf(
			"paced egress depth toward the slow consumer stayed at %d <= limit %d",
			paced.MaxDepth, paced.QueueLimit))
	}
	return t
}
