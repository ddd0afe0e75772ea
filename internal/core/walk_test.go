package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
	"atum/internal/smr"
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

// certFrames encodes what env captured since the last call, in send order,
// each frame behind its destination, and returns the digest.
func certFrames(t *testing.T, env *fakeEnv) (string, int) {
	t.Helper()
	h := sha256.New()
	for _, s := range env.sent {
		b, ok := (MessageCodec{}).EncodeMessage(s.msg)
		if !ok {
			t.Fatalf("%T is not wire-codable", s.msg)
		}
		h.Write(binary.BigEndian.AppendUint64(nil, uint64(s.to)))
		h.Write(b)
	}
	n := len(env.sent)
	env.sent = nil
	return hex.EncodeToString(h.Sum(nil)[:16]), n
}

// TestCertificateModeFramesGolden pins the three certificate-mode sends — the
// walk hop, the walk reply and the join redirect, each carrying this member's
// chain as an attachment — to the frames, destinations and order they had
// when each was built by hand beside the send helpers: the hop carries the
// payload from a majority member and names the destination epoch, the reply
// and the redirect carry it from every member and name none.
func TestCertificateModeFramesGolden(t *testing.T) {
	comp := testComp(7, 3, 1, 2, 3)
	nbr := testComp(9, 1, 4, 5, 6)
	n, env := memberNode(t, 2, comp, nbr, func(cfg *Config) { cfg.Mode = smr.ModeAsync })
	walkID := crypto.Hash([]byte("golden walk"))
	chain := []overlay.StepCert{{Next: comp.Clone(), Sigs: []overlay.CertSig{{Node: 1, Sig: []byte("sig")}}}}
	n.rememberChain(walkID, chain)
	p := walkPayload{WalkID: walkID, Purpose: PurposeJoin, StepsLeft: 1, Origin: nbr.Clone(), Joiner: ids.Identity{ID: 42, Addr: "t:42"}}
	for r := uint64(0); len(p.Rands) == 0; r++ { // the step that leads to nbr
		if n.st.nbrs.At(overlay.LinkIndex(int(r%4), 2)).GroupID == nbr.GroupID {
			p.Rands = []uint64{r}
		}
	}
	n.forwardWalk(p, chain)
	hop, hops := certFrames(t, env)
	n.sendWalkReply(p, walkResult{WalkID: walkID, Purpose: PurposeJoin, Target: comp.Clone(), Accept: true, Member: p.Joiner})
	reply, replies := certFrames(t, env)
	n.sendJoinRedirect(p.Joiner.ID, walkID)
	redirect, redirects := certFrames(t, env)
	if hops != nbr.N() || replies != nbr.N() || redirects != 1 {
		t.Fatalf("%d hop, %d reply and %d redirect frames, want %d, %d and 1", hops, replies, redirects, nbr.N(), nbr.N())
	}
	for _, c := range []struct{ what, got, want string }{
		{"walk hop", hop, "51e6b77325da72c452081203dfff58a9"},
		{"walk reply", reply, "a8c955f282f03cda05b425578105cba1"},
		{"join redirect", redirect, "e36721f101233834e82684b3dcb143d7"},
	} {
		if c.got != c.want {
			t.Errorf("%s frames digest %s, want %s", c.what, c.got, c.want)
		}
	}
}
