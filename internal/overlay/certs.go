package overlay

import (
	"errors"
	"fmt"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/wire"
)

// Random-walk certificates (paper §5.1): at each step of a walk, the
// forwarding vgroup appends a certificate — the identity (composition) of
// the chosen next vgroup, signed by the forwarding vgroup's members. The
// selected vgroup can then reply *directly* to the originating vgroup with
// the whole chain appended; the origin verifies the chain link by link,
// starting from its own composition, without a backward phase and without
// per-walk state at intermediate vgroups. The trade-off the paper calls out
// is chain size: linear in rwl, with full compositions and one signature set
// per hop — measurable through WireSize.

// ErrBadCertChain is returned when a certificate chain fails verification.
var ErrBadCertChain = errors.New("overlay: invalid walk certificate chain")

// StepCert is one link of a walk certificate chain: the composition of the
// vgroup chosen at this step, endorsed by a majority of the previous hop.
type StepCert struct {
	// Next is the composition of the vgroup the walk was forwarded to.
	Next group.Composition
	// Sigs are signatures by members of the *previous* hop (the forwarding
	// vgroup) over CertBytes(walkID, step, Next).
	Sigs []CertSig
}

// CertSig is a single member endorsement inside a StepCert.
type CertSig struct {
	Node ids.NodeID
	Sig  []byte
}

// Wire walks a CertSig's fields in wire order.
func (s *CertSig) Wire(c wire.Codec) {
	wire.U64(c, &s.Node)
	c.VarBytes(&s.Sig)
}

// Wire walks a StepCert's fields in wire order.
func (s *StepCert) Wire(c wire.Codec) {
	s.Next.Wire(c)
	wire.List(c, &s.Sigs, (*CertSig).Wire)
}

// WireSize returns the approximate encoded size of the certificate,
// accounting for the full composition and the signature set.
func (s StepCert) WireSize() int {
	size := 16
	for _, m := range s.Next.Members {
		size += 16 + len(m.Addr) + len(m.PubKey)
	}
	for _, sig := range s.Sigs {
		size += 8 + len(sig.Sig)
	}
	return size
}

// CertBytes returns the canonical bytes a forwarding member signs when
// endorsing a walk step.
func CertBytes(walkID crypto.Digest, step int, next group.Composition) []byte {
	var e wire.Encoder
	e.Bytes32(walkID)
	e.Uint64(uint64(step))
	e.Bytes32(next.Digest())
	return e.Bytes()
}

// SignStep produces this member's endorsement for a walk step.
func SignStep(signer crypto.Signer, self ids.NodeID, walkID crypto.Digest, step int, next group.Composition) CertSig {
	return CertSig{Node: self, Sig: signer.Sign(CertBytes(walkID, step, next))}
}

// VerifyChain verifies a certificate chain rooted at origin: chain[0] must
// be endorsed by a majority of origin's members, chain[i] by a majority of
// chain[i-1].Next's members. It returns the composition of the final vgroup.
func VerifyChain(scheme crypto.Scheme, origin group.Composition, walkID crypto.Digest, chain []StepCert) (group.Composition, error) {
	if len(chain) == 0 {
		return origin, nil
	}
	prev := origin
	for step, cert := range chain {
		msg := CertBytes(walkID, step, cert.Next)
		valid := 0
		seen := make(map[ids.NodeID]bool, len(cert.Sigs))
		for _, s := range cert.Sigs {
			if seen[s.Node] {
				continue
			}
			seen[s.Node] = true
			idx := prev.Index(s.Node)
			if idx < 0 {
				continue
			}
			if scheme.Verify(prev.Members[idx].PubKey, msg, s.Sig) {
				valid++
			}
		}
		if valid < prev.Majority() {
			return group.Composition{}, fmt.Errorf("%w: step %d has %d/%d endorsements",
				ErrBadCertChain, step, valid, prev.Majority())
		}
		prev = cert.Next
	}
	return prev, nil
}

// ChainWireSize sums the encoded size of a chain (for bandwidth accounting
// and for the §5.1 certificate-bulk measurements).
func ChainWireSize(chain []StepCert) int {
	size := 0
	for _, c := range chain {
		size += c.WireSize()
	}
	return size
}
