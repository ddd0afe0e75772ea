package experiment

import (
	"fmt"
	"time"

	"atum"
	"atum/internal/simnet"
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
	MsgsPerBcast float64
	// LinkMsgsPerBcast counts overlay-link traffic only — group messages and
	// application raw messages, the per-destination sends the egress
	// scheduler coalesces.
	LinkMsgsPerBcast float64
	BytesPerBcast    float64
	// Delivered is the fraction of (broadcast, stable member) pairs
	// delivered. Stable members are members from before the first measured
	// broadcast until after the drain; churners come and go by design.
	Delivered float64
	// RawSent counts raw chunks offered to SendRawWith, RawDelivered the
	// chunks an OnRawMessage hook received.
	RawSent, RawDelivered int
}

const (
	stormRoundDur       = 100 * time.Millisecond
	stormChunksPerRound = 8
	stormChunkBytes     = 256
	stormFillerBytes    = 20 // hex-printed into every broadcast payload
	// stormDrainRounds follow the last measured round: its broadcasts
	// finish disseminating, and the reconfigurations its leave and join
	// started complete, inside the counted window.
	stormDrainRounds = 60
)

// linkMsgs counts overlay-link messages in a counter diff: everything except
// the node-level SMR envelopes, heartbeats, and join/renounce handshakes
// (intra-vgroup or point-to-point control traffic outside the scheduler's
// scope).
func linkMsgs(d simnet.Stats) int64 {
	var out int64
	for typ, c := range d.SentByType {
		switch typ {
		case "core.SMREnvelope", "core.Heartbeat", "core.JoinContact",
			"core.ContactInfo", "core.JoinRequest", "core.Renounce":
		default:
			out += c
		}
	}
	return out
}

// freshBytes returns a seeded xorshift64 stream of incompressible filler
// (media-like data): byte counts then measure the protocol, not how well the
// test data folds. One seed gives one stream, so payloads match across runs.
func freshBytes(seed int64) func(size int) []byte {
	rng := uint64(seed)*0x9e3779b97f4a7c15 + 1
	return func(size int) []byte {
		b := make([]byte, size)
		for i := 0; i < size; i += 8 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			for j := 0; j < 8 && i+j < size; j++ {
				b[i+j] = byte(rng >> (8 * j))
			}
		}
		return b
	}
}

// StormRun measures dissemination cost on an sc.N-node ModeSync system with
// shuffling, heartbeats and evictions parked: per measured round every
// publisher broadcasts one payload, and churn and raw floods run as
// configured.
func StormRun(sc StormConfig) (StormTraffic, error) {
	cl := newCluster(smr.ModeSync, sc.Seed, nil, func(cfg *atum.Config) {
		cfg.Params = atum.Params{HC: 3, RWL: 4, GMax: 8, GMin: 4}
		cfg.RoundDuration = stormRoundDur
		cfg.DisableShuffle = true
		cfg.HeartbeatEvery = time.Hour // isolate protocol traffic
		cfg.EvictAfter = 10 * time.Hour
	})
	if err := cl.grow(sc.N, time.Minute); err != nil {
		return StormTraffic{}, fmt.Errorf("growth to %d nodes failed: %w", sc.N, err)
	}
	cl.c.Run(5 * time.Second) // settle

	var pubs, stable []*atum.Node
	for _, node := range cl.nodes {
		if !node.IsMember() {
			continue
		}
		if len(pubs) < sc.Publishers {
			pubs = append(pubs, node)
		}
		stable = append(stable, node)
	}
	// Churners leave from the tail of the stable set (never publishers);
	// they stop counting as stable.
	var leavers []*atum.Node
	if sc.Churn {
		churners := min(len(stable)/8, sc.Rounds)
		if len(stable)-churners > sc.Publishers {
			leavers = stable[len(stable)-churners:]
			stable = stable[:len(stable)-churners]
		}
	}
	contact := pubs[0].Identity()
	fresh := freshBytes(sc.Seed)

	before := cl.c.Net.Stats()
	var out StormTraffic
	var payloads []string
	for r := 0; r < sc.Rounds; r++ {
		if sc.Churn {
			if r < len(leavers) {
				_ = leavers[r].Leave()
			}
			_ = cl.addNode().Join(contact)
		}
		for i, p := range pubs {
			payload := fmt.Sprintf("storm-%d-%d-%x", r, i, fresh(stormFillerBytes))
			if p.BroadcastWith([]byte(payload), atum.BroadcastOpts{}) == nil {
				payloads = append(payloads, payload)
			}
		}
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
							_ = node.SendRawWith(member.ID, expChunk{Seq: uint64(out.RawSent), Data: fresh(stormChunkBytes)}, atum.SendOpts{})
						}
					}
				}
			}
		}
		cl.c.Run(stormRoundDur)
	}
	cl.c.Run(stormDrainRounds * stormRoundDur)
	diff := cl.c.Net.Stats().Sub(before)
	out.RawDelivered = cl.rawDelivered // nothing sends raw messages before the window
	out.Broadcasts = len(payloads)
	if len(payloads) == 0 {
		return out, nil
	}

	members, deliveredPairs := 0, 0
	for _, node := range stable {
		if !node.IsMember() {
			continue
		}
		members++
		for _, p := range payloads {
			if _, ok := cl.deliverAt[node.Identity().ID][p]; ok {
				deliveredPairs++
			}
		}
	}
	bcasts := float64(len(payloads))
	out.MsgsPerBcast = float64(diff.Sent) / bcasts
	out.LinkMsgsPerBcast = float64(linkMsgs(diff)) / bcasts
	out.BytesPerBcast = float64(diff.BytesSent) / bcasts
	if members > 0 {
		out.Delivered = float64(deliveredPairs) / (bcasts * float64(members))
	}
	return out, nil
}
