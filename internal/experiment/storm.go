package experiment

import (
	"fmt"
	"time"

	"atum"
	"atum/internal/smr"
)

// expChunk is the harness's registered raw-message type: a stand-in for
// AStream tier-2 data pushes, wire-framed under the benchmark extension tag
// (docs/WIRE.md: 0xA0–0xAF are reserved for in-repo benchmarks and tests).
type expChunk struct {
	Seq  uint64
	Data []byte
}

const rawTagExpChunk = 0xA0

func init() {
	atum.RegisterRawMessage(rawTagExpChunk, expChunk{},
		func(v any, e *atum.WireEncoder) {
			m := v.(expChunk)
			e.Uint64(m.Seq)
			e.VarBytes(m.Data)
		},
		func(d *atum.WireDecoder) any {
			return expChunk{Seq: d.Uint64(), Data: d.VarBytes()}
		})
}

// StormConfig parameterises the one dissemination scenario of this package:
// grow → settle → publish → drain → count.
type StormConfig struct {
	N, Publishers, Rounds int
	Seed                  int64
	// Churn makes one stable member leave and one fresh node join in every
	// measured round (walk, neighbor-update and set-neighbor traffic).
	Churn bool
	// RawFloods makes every stable member push stormChunksPerRound raw chunks
	// to each peer of its vgroup in every measured round. AStream's tier 2 is
	// such a flood: every node re-pushes each chunk, so per-node chunk egress
	// scales with the system and shares the per-destination queues with the
	// protocol traffic.
	RawFloods bool
}

// StormTraffic is the measured cost of one StormRun.
type StormTraffic struct {
	Broadcasts int
	// MsgsPerBcast counts every network message, intra-vgroup SMR agreement
	// included.
	MsgsPerBcast  float64
	BytesPerBcast float64
	// Delivered is the fraction of (broadcast, stable member) pairs
	// delivered. Stable members are members from before the first measured
	// broadcast until after the drain; churners come and go by design.
	Delivered float64
	// RawSent counts raw chunks offered to SendRawWith, RawDelivered the
	// chunks an OnRawMessage hook received.
	RawSent, RawDelivered int
}

const (
	stormChunksPerRound = 8
	stormChunkBytes     = 256
	stormFillerBytes    = 20 // hex-printed into every broadcast payload
	// stormDrainRounds follow the last measured round: its broadcasts
	// finish disseminating, and the reconfigurations its leave and join
	// started complete, inside the counted window.
	stormDrainRounds = 60
)

// StormRun measures dissemination cost on an sc.N-node quiet ModeSync
// system: per measured round every publisher broadcasts one payload, and
// churn and raw floods run as configured.
func StormRun(sc StormConfig) (StormTraffic, error) {
	cl := newCluster(smr.ModeSync, sc.Seed, nil, quiet)
	if err := cl.grow(sc.N, time.Minute, nil); err != nil {
		return StormTraffic{}, fmt.Errorf("growth to %d nodes failed: %w", sc.N, err)
	}
	cl.c.Run(5 * time.Second) // settle

	stable := cl.members()
	pubs := stable[:min(sc.Publishers, len(stable))]
	// Churners leave from the tail of the stable set (never publishers);
	// they stop counting as stable.
	var leavers []*atum.Node
	if churners := min(len(stable)/8, sc.Rounds); sc.Churn && len(stable)-churners > sc.Publishers {
		stable, leavers = stable[:len(stable)-churners], stable[len(stable)-churners:]
	}
	contact := pubs[0].Identity()

	before := cl.c.Net.Stats()
	var out StormTraffic
	var payloads []string
	for r := 0; r < sc.Rounds; r++ {
		if sc.Churn {
			if r < len(leavers) {
				_ = leavers[r].Leave()
			}
			_ = cl.addNode(nil).Join(contact)
		}
		payloads = append(payloads, cl.publish(pubs, "storm", r, stormFillerBytes)...)
		if sc.RawFloods {
			for _, node := range stable {
				if !node.IsMember() {
					continue
				}
				self := node.Identity().ID
				for c := 0; c < stormChunksPerRound; c++ {
					for _, member := range node.GroupMembers() {
						if member.ID != self {
							out.RawSent++
							_ = node.SendRawWith(member.ID, expChunk{Seq: uint64(out.RawSent), Data: cl.fresh(stormChunkBytes)}, atum.SendOpts{})
						}
					}
				}
			}
		}
		cl.c.Run(quietRound)
	}
	cl.c.Run(stormDrainRounds * quietRound)
	diff := cl.c.Net.Stats().Sub(before)
	out.RawDelivered = cl.rawDelivered // nothing sends raw messages before the window
	out.Broadcasts = len(payloads)
	if len(payloads) == 0 {
		return out, nil
	}
	bcasts := float64(len(payloads))
	out.MsgsPerBcast = float64(diff.Sent) / bcasts
	out.BytesPerBcast = float64(diff.BytesSent) / bcasts
	out.Delivered = cl.delivered(stable, payloads)
	return out, nil
}
