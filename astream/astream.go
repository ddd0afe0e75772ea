// Package astream is AStream, the data streaming application of paper §4.3.
//
// AStream has a two-tier design:
//
//   - Tier 1 (reliability): Atum broadcasts per-chunk digests from the
//     source. The application's Forward callback restricts gossip to one
//     (Single) or two (Double) H-graph cycles — the §6.3 trade-off between
//     metadata latency and bandwidth.
//   - Tier 2 (throughput): a lightweight push multicast disseminates the
//     actual chunk data over direct node links — full coverage inside the
//     own vgroup, and a forest of f+1 parents per neighboring vgroup (the
//     paper's §4.3 forest): each chunk picks f+1 members of each
//     neighbor vgroup, rotated per sequence number so parent load spreads.
//     With at least one correct parent per group and receivers re-pushing
//     verified data inside their own vgroup, the "at least one correct
//     path" guarantee is preserved at a fraction of the flood's copies.
//
// A node delivers a chunk when both the data and a matching tier-1 digest
// are present; corrupted data (no digest match) is discarded.
package astream

import (
	"bytes"
	"fmt"
	"time"

	"atum"
	"atum/internal/crypto"
	"atum/internal/wire"
)

// CycleMode selects how many H-graph cycles tier-1 digests gossip along.
type CycleMode int

// Cycle modes (§6.3).
const (
	// Single gossips digests along one cycle (max throughput headroom).
	Single CycleMode = iota + 1
	// Double gossips digests along two cycles (lower latency).
	Double
)

// String implements fmt.Stringer.
func (m CycleMode) String() string {
	if m == Double {
		return "double"
	}
	return "single"
}

// Chunk is one delivered, verified stream chunk.
type Chunk struct {
	Seq  uint64
	Data []byte
}

// Options configures a stream participant.
type Options struct {
	// Mode selects Single or Double cycle digest dissemination.
	Mode CycleMode
	// OnChunk receives verified chunks in arrival order.
	OnChunk func(Chunk)
}

// digestMsg is the tier-1 payload.
type digestMsg struct {
	Seq    uint64
	Digest crypto.Digest
}

// dataMsg is the tier-2 payload.
type dataMsg struct {
	Seq  uint64
	Data []byte
}

func (m *dataMsg) Wire(c wire.Codec) {
	c.Uint64(&m.Seq)
	c.VarBytes(&m.Data)
}

// rawTagData is AStream's wire extension tag for dataMsg (docs/WIRE.md:
// astream owns 0x80–0x8F). Registration makes tier-2 pushes wire-codable:
// the engine's egress scheduler coalesces concurrent chunks per destination
// node into batch carriers, and TCP transports frame them through the wire
// codec.
const rawTagData = 0x80

func init() { atum.RegisterRawMessage[dataMsg](rawTagData) }

// Service is one node's stream participation.
// maxCandidates bounds how many distinct unverified copies of one chunk a
// node keeps (and forwards) while the tier-1 digest is still in flight. A
// Byzantine parent can race a forged copy ahead of the correct one; keeping
// only the first copy would let that forgery shadow the chunk entirely
// (the paper's push-pull recovers by pulling from another parent; the flood
// keeps bounded candidates instead). With f+1 parents at least one is
// correct, so 4 candidates comfortably cover the forged-first orders.
const maxCandidates = 4

type Service struct {
	node *atum.Node
	opts Options

	pendingData   map[uint64][][]byte // candidate copies awaiting the digest
	pendingDigest map[uint64]crypto.Digest
	delivered     map[uint64]bool
	deliveredAt   map[uint64]time.Duration
	digestAt      map[uint64]time.Duration

	shed uint64 // pushes withheld or rejected under pressure
}

// New creates a stream service.
func New(opts Options) *Service {
	if opts.Mode == 0 {
		opts.Mode = Single
	}
	return &Service{
		opts:          opts,
		pendingData:   make(map[uint64][][]byte),
		pendingDigest: make(map[uint64]crypto.Digest),
		delivered:     make(map[uint64]bool),
		deliveredAt:   make(map[uint64]time.Duration),
		digestAt:      make(map[uint64]time.Duration),
	}
}

// Bind attaches the service to its node.
func (s *Service) Bind(node *atum.Node) { s.node = node }

// Callbacks returns the Atum callbacks: for tier 1, Deliver and the Forward
// restriction implementing Single/Double cycle dissemination; for tier 2,
// the OnRawMessage hook that receives data pushes. Tier-2 pushes pace
// themselves by reading the node's egress pressure.
func (s *Service) Callbacks() atum.Callbacks {
	return atum.Callbacks{
		Deliver:      s.deliverDigest,
		OnRawMessage: s.handleRaw,
		Forward: func(_ atum.Delivery, link atum.ForwardLink) bool {
			switch s.opts.Mode {
			case Double:
				return link.Cycle < 2
			default:
				return link.Cycle < 1
			}
		},
	}
}

// Shed reports how many tier-2 pushes were withheld (pressured destination)
// or rejected (egress overflow) instead of sent — the application-chosen
// load shedding the flow-control API enables.
func (s *Service) Shed() uint64 { return s.shed }

// Publish sends one stream chunk: the digest through Atum (tier 1), the
// data through the push multicast (tier 2).
func (s *Service) Publish(seq uint64, data []byte) error {
	if err := s.node.BroadcastWith(encodeStream(digestMsg{Seq: seq, Digest: crypto.Hash(data)}), atum.BroadcastOpts{}); err != nil {
		return err
	}
	s.pushData(dataMsg{Seq: seq, Data: data}, false)
	s.tryDeliver(seq, data)
	return nil
}

// handleRaw is the node's OnRawMessage hook (tier-2 data).
func (s *Service) handleRaw(_ atum.NodeID, msg any) {
	m, ok := msg.(dataMsg)
	if !ok {
		return
	}
	if s.delivered[m.Seq] {
		return
	}
	if want, ok := s.pendingDigest[m.Seq]; ok {
		// Digest known: verify before storing or forwarding; corrupted
		// copies die here.
		if crypto.Hash(m.Data) != want {
			return
		}
		s.pushData(m, false)
		s.tryDeliver(m.Seq, m.Data)
		return
	}
	// Digest still in flight: keep (and forward) up to maxCandidates
	// distinct copies so a forged first copy cannot shadow the correct one.
	for _, c := range s.pendingData[m.Seq] {
		if bytes.Equal(c, m.Data) {
			return // duplicate of a known candidate
		}
	}
	if len(s.pendingData[m.Seq]) >= maxCandidates {
		return
	}
	s.pendingData[m.Seq] = append(s.pendingData[m.Seq], m.Data)
	s.pushData(m, true)
}

// pushData forwards a chunk to this node's vgroup members and an f+1-parent
// forest over the neighbor vgroups (tier-2 links follow the overlay
// structure, §4.3), pacing off the egress pressure signal instead of
// flooding blindly: destinations at Critical receive no data pushes (their
// verified copy arrives via another of the f+1 parents), destinations at
// High still receive verified data but no speculative (unverified-candidate)
// forwards, and overflow rejections count as sheds rather than retries —
// chunk data is replaceable, and the tier-1 digests that make it verifiable
// ride the protocol path, which is never shed.
//
// The own vgroup gets full coverage (chunk verification needs the digest
// quorum there anyway). Each neighbor vgroup gets f+1 parents chosen by
// sequence-number rotation — at least one is correct, and receivers re-push
// verified data through their own vgroup, so one surviving copy per group
// suffices.
func (s *Service) pushData(m dataMsg, speculative bool) {
	if s.node == nil {
		return
	}
	self := s.node.Identity().ID
	sent := map[atum.NodeID]bool{self: true}
	send := func(id atum.NodeID) {
		if sent[id] {
			return
		}
		sent[id] = true
		if lvl := s.node.EgressPressure(id); lvl >= atum.PressureCritical ||
			(lvl >= atum.PressureHigh && speculative) {
			s.shed++
			return
		}
		if err := s.node.SendRawWith(id, m, atum.SendOpts{Priority: atum.PriorityBulk}); err != nil {
			s.shed++
		}
	}
	for _, member := range s.node.GroupMembers() {
		send(member.ID)
	}
	inner := s.node.Inner()
	nbrs := inner.Neighbors()
	for c := 0; c < nbrs.NumCycles(); c++ {
		for _, dir := range []int{0, 1} {
			nbr := nbrs.Preds[c]
			if dir == 1 {
				nbr = nbrs.Succs[c]
			}
			if nbr.GroupID == 0 || len(nbr.Members) == 0 {
				continue
			}
			k := inner.FaultBound(len(nbr.Members)) + 1
			if k > len(nbr.Members) {
				k = len(nbr.Members)
			}
			off := int(m.Seq % uint64(len(nbr.Members)))
			for i := 0; i < k; i++ {
				send(nbr.Members[(off+i)%len(nbr.Members)].ID)
			}
		}
	}
}

// deliverDigest processes tier-1 digests.
func (s *Service) deliverDigest(d atum.Delivery) {
	m, err := decodeStream(d.Data)
	if err != nil {
		return
	}
	if _, seen := s.pendingDigest[m.Seq]; seen {
		return
	}
	s.pendingDigest[m.Seq] = m.Digest
	s.digestAt[m.Seq] = s.node.Now()
	// Judge the buffered candidates: deliver the matching one (if any) and
	// drop the rest.
	for _, data := range s.pendingData[m.Seq] {
		if crypto.Hash(data) == m.Digest {
			s.tryDeliver(m.Seq, data)
			break
		}
	}
	delete(s.pendingData, m.Seq)
}

// tryDeliver hands a chunk to the application once its digest verified.
func (s *Service) tryDeliver(seq uint64, data []byte) {
	if s.delivered[seq] {
		return
	}
	want, ok := s.pendingDigest[seq]
	if !ok || crypto.Hash(data) != want {
		return
	}
	s.delivered[seq] = true
	s.deliveredAt[seq] = s.node.Now()
	delete(s.pendingData, seq)
	if s.opts.OnChunk != nil {
		s.opts.OnChunk(Chunk{Seq: seq, Data: data})
	}
}

// Delivered reports whether the chunk was verified and delivered.
func (s *Service) Delivered(seq uint64) bool { return s.delivered[seq] }

// TierTwoLatency returns deliveredAt − digestAt for a chunk: the latency the
// second tier added on top of Atum's digest dissemination (Fig. 12's
// metric), and whether the chunk was delivered.
func (s *Service) TierTwoLatency(seq uint64) (time.Duration, bool) {
	if !s.delivered[seq] {
		return 0, false
	}
	dAt, ok := s.digestAt[seq]
	if !ok {
		return 0, false
	}
	lat := s.deliveredAt[seq] - dAt
	if lat < 0 {
		lat = 0
	}
	return lat, true
}

// DigestLatencyOf returns when the digest arrived (for total latency).
func (s *Service) DigestLatencyOf(seq uint64) (time.Duration, bool) {
	at, ok := s.digestAt[seq]
	return at, ok
}

// --- tier-1 broadcast payload codec (docs/WIRE.md) ---

// streamTagDigest is the first byte of a tier-1 broadcast payload; the
// digestMsg fields follow. Append-only, like every wire tag.
const streamTagDigest = 0x01

// Wire walks a tier-1 payload: the tag byte, then the fields. Any member
// may broadcast, so decoding is of untrusted input: an unknown tag (empty
// input reads as tag 0), truncated and trailing bytes are errors.
func (m *digestMsg) Wire(c wire.Codec) {
	tag := byte(streamTagDigest)
	c.Byte(&tag)
	if tag != streamTagDigest {
		c.Fail(fmt.Errorf("unknown broadcast payload tag %#x", tag))
	}
	c.Uint64(&m.Seq)
	wire.Bytes32(c, &m.Digest)
}

func encodeStream(m digestMsg) []byte { return wire.Encode(m.Wire) }

func decodeStream(b []byte) (digestMsg, error) {
	var m digestMsg
	d := wire.NewDecoder(b)
	m.Wire(d.Codec())
	if err := d.Finish(); err != nil {
		return digestMsg{}, fmt.Errorf("astream: decode digest: %w", err)
	}
	return m, nil
}
