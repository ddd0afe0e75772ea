package pbft

import (
	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/smr"
	"atum/internal/wire"
)

// Request asks the group to order an operation. Members broadcast requests
// to all replicas: the primary assigns a sequence number; backups use the
// request's presence to arm the view-change timer, so a primary that
// suppresses requests is eventually replaced.
type Request struct {
	GroupID ids.GroupID
	Epoch   uint64
	Op      smr.Operation
}

// WireSize implements actor.Sizer.
func (m Request) WireSize() int { return 40 + len(m.Op.Data) }

// PrePrepare is the primary's ordering proposal for one batch.
type PrePrepare struct {
	GroupID ids.GroupID
	Epoch   uint64
	View    uint64
	Seq     uint64
	Digest  crypto.Digest
	Batch   []smr.Operation
}

// WireSize implements actor.Sizer.
func (m PrePrepare) WireSize() int {
	size := 72
	for _, op := range m.Batch {
		size += 16 + len(op.Data)
	}
	return size
}

// Prepare is a backup's agreement to the primary's proposal.
type Prepare struct {
	GroupID ids.GroupID
	Epoch   uint64
	View    uint64
	Seq     uint64
	Digest  crypto.Digest
}

// WireSize implements actor.Sizer.
func (m Prepare) WireSize() int { return 72 }

// Commit finalizes a prepared proposal.
type Commit struct {
	GroupID ids.GroupID
	Epoch   uint64
	View    uint64
	Seq     uint64
	Digest  crypto.Digest
}

// WireSize implements actor.Sizer.
func (m Commit) WireSize() int { return 72 }

// Checkpoint advertises a replica's executed-state digest at a sequence
// number; 2f+1 matching checkpoints make it stable and garbage-collect the
// log below it.
type Checkpoint struct {
	GroupID ids.GroupID
	Epoch   uint64
	Seq     uint64
	Digest  crypto.Digest
}

// WireSize implements actor.Sizer.
func (m Checkpoint) WireSize() int { return 64 }

// PreparedEntry proves that a batch prepared at (View, Seq) in a prior view.
// The batch payload rides along so the new primary can re-propose it.
type PreparedEntry struct {
	Seq    uint64
	View   uint64
	Digest crypto.Digest
	Batch  []smr.Operation
}

// ViewChange votes to install NewView. View changes are signed (signatures
// are transferable), because the new primary forwards them inside NewView as
// proof that 2f+1 replicas agreed to change views.
type ViewChange struct {
	GroupID   ids.GroupID
	Epoch     uint64
	NewView   uint64
	StableSeq uint64
	Prepared  []PreparedEntry
	Node      ids.NodeID
	Sig       []byte
}

// WireSize implements actor.Sizer.
func (m ViewChange) WireSize() int {
	size := 96 + len(m.Sig)
	for _, p := range m.Prepared {
		size += 48
		for _, op := range p.Batch {
			size += 16 + len(op.Data)
		}
	}
	return size
}

// signedBytes returns the canonical bytes covered by the view-change
// signature. The prepared set is bound through a digest so the signature is
// compact.
func (m ViewChange) signedBytes() []byte {
	var e wire.Encoder
	e.Uint64(uint64(m.GroupID))
	e.Uint64(m.Epoch)
	e.Uint64(m.NewView)
	e.Uint64(m.StableSeq)
	e.Uint64(uint64(m.Node))
	e.Uint64(uint64(len(m.Prepared)))
	for _, p := range m.Prepared {
		e.Uint64(p.Seq)
		e.Uint64(p.View)
		e.Bytes32(p.Digest)
		e.Uint64(uint64(len(p.Batch)))
		for _, op := range p.Batch {
			e.Uint64(uint64(op.Proposer))
			e.Uint64(op.OpID)
			d := crypto.Hash(op.Data)
			e.Bytes32(d)
		}
	}
	return e.Bytes()
}

// NewView installs a view: it carries the quorum of view changes and the
// pre-prepares that re-propose everything that might have committed.
type NewView struct {
	GroupID     ids.GroupID
	Epoch       uint64
	View        uint64
	ViewChanges []ViewChange
	PrePrepares []PrePrepare
}

// WireSize implements actor.Sizer.
func (m NewView) WireSize() int {
	size := 32
	for _, vc := range m.ViewChanges {
		size += vc.WireSize()
	}
	for _, pp := range m.PrePrepares {
		size += pp.WireSize()
	}
	return size
}

// --- wire codec (byte-level transport framing) ---

// Wire walks a Request's fields in wire order.
func (m *Request) Wire(c wire.Codec) {
	wire.U64(c, &m.GroupID)
	c.Uint64(&m.Epoch)
	m.Op.Wire(c)
}

// Wire walks a PrePrepare's fields in wire order.
func (m *PrePrepare) Wire(c wire.Codec) {
	wire.U64(c, &m.GroupID)
	c.Uint64(&m.Epoch)
	c.Uint64(&m.View)
	c.Uint64(&m.Seq)
	wire.Bytes32(c, &m.Digest)
	wire.List(c, &m.Batch, (*smr.Operation).Wire)
}

// Wire walks a Prepare's fields in wire order.
func (m *Prepare) Wire(c wire.Codec) {
	wire.U64(c, &m.GroupID)
	c.Uint64(&m.Epoch)
	c.Uint64(&m.View)
	c.Uint64(&m.Seq)
	wire.Bytes32(c, &m.Digest)
}

// Wire walks a Commit's fields in wire order.
func (m *Commit) Wire(c wire.Codec) {
	wire.U64(c, &m.GroupID)
	c.Uint64(&m.Epoch)
	c.Uint64(&m.View)
	c.Uint64(&m.Seq)
	wire.Bytes32(c, &m.Digest)
}

// Wire walks a Checkpoint's fields in wire order.
func (m *Checkpoint) Wire(c wire.Codec) {
	wire.U64(c, &m.GroupID)
	c.Uint64(&m.Epoch)
	c.Uint64(&m.Seq)
	wire.Bytes32(c, &m.Digest)
}

// Wire walks a PreparedEntry's fields in wire order.
func (p *PreparedEntry) Wire(c wire.Codec) {
	c.Uint64(&p.Seq)
	c.Uint64(&p.View)
	wire.Bytes32(c, &p.Digest)
	wire.List(c, &p.Batch, (*smr.Operation).Wire)
}

// Wire walks a ViewChange's fields in wire order.
func (m *ViewChange) Wire(c wire.Codec) {
	wire.U64(c, &m.GroupID)
	c.Uint64(&m.Epoch)
	c.Uint64(&m.NewView)
	c.Uint64(&m.StableSeq)
	wire.List(c, &m.Prepared, (*PreparedEntry).Wire)
	wire.U64(c, &m.Node)
	c.VarBytes(&m.Sig)
}

// Wire walks a NewView's fields in wire order.
func (m *NewView) Wire(c wire.Codec) {
	wire.U64(c, &m.GroupID)
	c.Uint64(&m.Epoch)
	c.Uint64(&m.View)
	wire.List(c, &m.ViewChanges, (*ViewChange).Wire)
	wire.List(c, &m.PrePrepares, (*PrePrepare).Wire)
}
