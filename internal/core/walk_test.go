package core

import (
	"bytes"
	"fmt"
	"testing"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
)

// keyedComp is a composition whose members hold sim-scheme keys, with their
// signers.
func keyedComp(gid ids.GroupID, epoch uint64, members ...ids.NodeID) (group.Composition, map[ids.NodeID]crypto.Signer) {
	c := group.Composition{GroupID: gid, Epoch: epoch}
	signers := map[ids.NodeID]crypto.Signer{}
	for _, m := range members {
		signers[m] = simScheme().NewSigner([]byte(fmt.Sprintf("walk-test-%d", m)))
		c.Members = append(c.Members, ids.Identity{ID: m, Addr: fmt.Sprintf("t:%d", m), PubKey: signers[m].Public()})
	}
	return c, signers
}

// TestMergeChainDeterministic: the chain a member rebuilds from one accepted
// walk message is a function of that message. Every voter of the forwarding
// vgroup attaches a different (valid) prefix chain here, so ranging over the
// attachment map picked another prefix and another signature order from call
// to call; voters are visited in ascending NodeID.
func TestMergeChainDeterministic(t *testing.T) {
	origin, originSigners := keyedComp(1, 1, 1, 2, 3)
	src, srcSigners := keyedComp(2, 4, 11, 12, 13, 14, 15)
	own, _ := keyedComp(3, 2, 21, 22, 23)
	n, _ := memberNode(t, 21, own, src)

	walkID := wcDigest(9)
	p := walkPayload{WalkID: walkID, Origin: origin, Path: []group.Key{origin.Key(), src.Key()}}
	endorsers := [][]ids.NodeID{{1, 2}, {2, 3}, {3, 1}, {1, 2, 3}, {3, 2, 1}}
	acc := group.Accepted{Src: src.Key(), Attachments: map[ids.NodeID][]byte{}}
	for i, voter := range ids.IdentityIDs(src.Members) {
		hop := overlay.StepCert{Next: src}
		for _, o := range endorsers[i] {
			hop.Sigs = append(hop.Sigs, overlay.SignStep(originSigners[o], o, walkID, 0, src))
		}
		acc.Attachments[voter] = encodePayload(walkAttachment{
			Chain:   []overlay.StepCert{hop},
			StepSig: overlay.SignStep(srcSigners[voter], voter, walkID, 1, own),
		})
	}

	first := n.mergeChain(acc, p)
	if final, err := overlay.VerifyChain(simScheme(), origin, walkID, first); err != nil || final.GroupID != own.GroupID {
		t.Fatalf("merged chain does not verify to our vgroup: %v", err)
	}
	if len(first) != 2 || len(first[0].Sigs) != 2 || first[0].Sigs[0].Node != 1 {
		t.Fatalf("merged chain %+v: want the prefix of the lowest voter, endorsed by 1 then 2", first)
	}
	for i, sig := range first[1].Sigs {
		if want := src.Members[i].ID; sig.Node != want {
			t.Fatalf("step signature %d is by %v, want %v (ascending voters)", i, sig.Node, want)
		}
	}
	want := encodePayload(walkAttachment{Chain: first})
	for i := 1; i < 50; i++ {
		if got := encodePayload(walkAttachment{Chain: n.mergeChain(acc, p)}); !bytes.Equal(got, want) {
			t.Fatalf("call %d merged the same accepted message into a different chain", i)
		}
	}
}
