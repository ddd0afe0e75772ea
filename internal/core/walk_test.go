package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

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

// directCopy is one certificate-mode copy with an empty chain: what anyone
// can send.
func directCopy(kind group.Kind, src group.Composition, msgID crypto.Digest, v any) group.GroupMsg {
	payload := encodePayload(v)
	return group.GroupMsg{SrcGroup: src.GroupID, SrcEpoch: src.Epoch, Kind: kind, MsgID: msgID,
		PayloadDigest: crypto.Hash(payload), Payload: payload, Attach: encodePayload(walkAttachment{})}
}

// TestDirectRedirectFromStrangerIgnored: a joiner waiting for its redirect
// trusts its contact vgroup alone (§3.3.2). Node 99, a member of nothing,
// sends it an empty-chain redirect that names the contact's GroupID with
// members 97–99. The joiner used to take it: it sent its JoinRequests to
// 97–99 and stored the forged composition, so three such nodes could make it
// adopt their snapshot. An empty-chain redirect now counts only when it names
// the composition the joiner trusts, or comes from the contact itself.
func TestDirectRedirectFromStrangerIgnored(t *testing.T) {
	contact := testComp(7, 3, 1, 2, 3)
	walkID := crypto.Hash([]byte("join walk"))
	joiner := func() (*Node, *fakeEnv) {
		n := New(Config{Identity: ids.Identity{ID: 50, Addr: "t:50"}, SignerSeed: []byte("joiner-50"),
			Scheme: simScheme(), Mode: smr.ModeAsync, Params: Params{HC: 2, RWL: 3, GMax: 6, GMin: 3}})
		env := &fakeEnv{self: 50, now: time.Second, rng: rand.New(rand.NewSource(50))}
		n.Start(env)
		if err := n.Join(contact.Members[0]); err != nil {
			t.Fatal(err)
		}
		n.Receive(1, ContactInfo{Comp: contact})
		if n.join.stage != stageRequestedC {
			t.Fatalf("joiner at stage %d after the contact's answer, want %d", n.join.stage, stageRequestedC)
		}
		env.sent = nil
		return n, env
	}
	requested := func(env *fakeEnv) (to []ids.NodeID) {
		for _, s := range env.sent {
			if _, ok := s.msg.(JoinRequest); ok {
				to = append(to, s.to)
			}
		}
		return to
	}
	redirect := func(target group.Composition) group.GroupMsg {
		return directCopy(kindJoinRedirect, target, replyMsgID(walkID, 999), joinRedirectPayload{WalkID: walkID, Target: target})
	}

	forged := testComp(7, 4, 97, 98, 99)
	n, env := joiner()
	n.Receive(99, redirect(forged))
	if n.join.stage != stageRequestedC || len(requested(env)) != 0 {
		t.Fatalf("a stranger's redirect moved the joiner to stage %d, JoinRequests to %v", n.join.stage, requested(env))
	}
	if _, ok := n.comps.exact(forged.Key()); ok {
		t.Fatal("the joiner stored the forged composition")
	}

	// The contact may name its vgroup's newer composition; anyone may name the
	// one the joiner trusts.
	newer := testComp(7, 4, 1, 2, 3, 4)
	for _, c := range []struct {
		from   ids.NodeID
		target group.Composition
	}{{1, newer}, {99, contact}} {
		n, env := joiner()
		n.Receive(c.from, redirect(c.target))
		if n.join.stage != stageRequestedD || !slices.Equal(requested(env), ids.IdentityIDs(c.target.Members)) {
			t.Errorf("redirect to %v from %v: stage %d, JoinRequests to %v, want its members", c.target.Key(), c.from, n.join.stage, requested(env))
		}
	}
}

// pendingWalk makes n, a certificate-mode member of origin, the origin of one
// pending walk, with a replica that records what n proposes.
func pendingWalk(t *testing.T, n *Node, purpose WalkPurpose, walkID crypto.Digest) *recordingReplica {
	t.Helper()
	n.st.walkOrigins = append(n.st.walkOrigins, walkOrigin{WalkID: walkID, Purpose: purpose, OriginComp: n.st.comp, Member: n.st.comp.Members[0]})
	rec := &recordingReplica{}
	n.replica = rec
	return rec
}

// TestDirectWalkReplyFromStrangerIgnored: node 99 sends a vgroup with a
// pending shuffle walk an empty-chain result that accepts the exchange with
// itself as the partner. Every correct member used to propose it, and at f+1
// proposals the vgroup swapped a member for node 99. An empty chain now counts
// only from a member of the walk's origin composition.
func TestDirectWalkReplyFromStrangerIgnored(t *testing.T) {
	origin := testComp(7, 3, 1, 2, 3)
	walkID := crypto.Hash([]byte("shuffle walk"))
	n, _ := memberNode(t, 1, origin, testComp(9, 1, 4, 5, 6), func(cfg *Config) { cfg.Mode = smr.ModeAsync })
	rec := pendingWalk(t, n, PurposeShuffle, walkID)
	partner := testComp(12, 1, 97, 98, 99)
	res := walkResult{WalkID: walkID, Purpose: PurposeShuffle, Target: partner, Accept: true, Partner: partner.Members[2], Member: origin.Members[0]}
	n.Receive(99, directCopy(kindWalkResult, partner, replyMsgID(walkID, 0), res))
	if len(rec.proposed) != 0 {
		t.Fatalf("a stranger's empty-chain reply was proposed %d times", len(rec.proposed))
	}
	// A walk that ended where it started: an origin member's refusal counts.
	back := walkResult{WalkID: walkID, Purpose: PurposeShuffle, Target: origin, Member: origin.Members[0]}
	n.Receive(2, directCopy(kindWalkResult, origin, replyMsgID(walkID, 0), back))
	if len(rec.proposed) != 1 {
		t.Fatalf("an origin member's empty-chain refusal was proposed %d times, want once", len(rec.proposed))
	}
}

// TestEmptyChainNeverAcceptsAnExchange: an empty chain attests nothing beyond
// the origin, and a walk that ends where it started refuses its exchange
// (applyWalkArrival). So when one origin member forges an empty-chain Accept —
// under the shuffle's purpose or another — no correct member proposes it. And
// a result an origin member can still send, ending a join walk, teaches the
// vgroup no composition of its own.
func TestEmptyChainNeverAcceptsAnExchange(t *testing.T) {
	origin := testComp(7, 3, 1, 2, 3)
	walkID := crypto.Hash([]byte("shuffle walk"))
	n, _ := memberNode(t, 1, origin, testComp(9, 1, 4, 5, 6), func(cfg *Config) { cfg.Mode = smr.ModeAsync })
	rec := pendingWalk(t, n, PurposeShuffle, walkID)
	stranger := ids.Identity{ID: 99, Addr: "t:99"}
	for _, purpose := range []WalkPurpose{PurposeShuffle, PurposeJoin} {
		res := walkResult{WalkID: walkID, Purpose: purpose, Target: origin, Accept: true, Partner: stranger, Member: origin.Members[0]}
		n.Receive(2, directCopy(kindWalkResult, origin, replyMsgID(walkID, 0), res))
	}
	if len(rec.proposed) != 0 {
		t.Fatalf("an origin member's empty-chain Accept was proposed %d times", len(rec.proposed))
	}

	joinWalk := crypto.Hash([]byte("join walk"))
	pendingWalk(t, n, PurposeJoin, joinWalk)
	planted := testComp(7, 4, 2, 97, 98)
	n.applyWalkResult(walkResult{WalkID: joinWalk, Purpose: PurposeJoin, Target: planted, Accept: true})
	if _, ok := n.comps.exact(planted.Key()); ok {
		t.Fatal("a walk result planted a composition of the vgroup's own")
	}
}

// TestWalkChainFreedAtArrival: a member keeps a walk's certificate chain for
// the replies its agreed arrival sends, the chain's only readers. Nothing freed
// it, and the map was wiped whole past 512 walks. Now the applied arrival frees
// it, and past maxChains chains the oldest gives way first.
func TestWalkChainFreedAtArrival(t *testing.T) {
	comp, origin := testComp(7, 3, 1, 2, 3), testComp(9, 1, 4, 5, 6)
	n, env := memberNode(t, 1, comp, origin, func(cfg *Config) { cfg.Mode = smr.ModeAsync })
	walk := walkPayload{WalkID: wcDigest(1), Purpose: PurposeJoin, Origin: origin, Joiner: ids.Identity{ID: 20, Addr: "t:20"}}
	n.rememberChain(walk.WalkID, []overlay.StepCert{{Next: comp}})
	n.applyWalkArrival(walk.WalkID, origin.Key(), walk)
	n.egress.FlushAll()
	if len(env.sent) == 0 {
		t.Fatal("the arrival sent no reply")
	}
	if _, ok := n.lastChains[walk.WalkID]; ok {
		t.Fatal("the chain outlived the arrival that was its only reader")
	}

	id := func(i int) crypto.Digest { return crypto.HashUint64(crypto.Digest{}, uint64(i)) }
	const walks = maxChains + 100
	for i := 0; i < walks; i++ {
		n.rememberChain(id(i), nil)
	}
	_, oldest := n.lastChains[id(walks-maxChains-1)]
	_, kept := n.lastChains[id(walks-maxChains)]
	if len(n.lastChains) != maxChains || oldest || !kept {
		t.Fatalf("%d unapplied walks left %d chains (walk %d kept %v, walk %d kept %v), want the newest %d",
			walks, len(n.lastChains), walks-maxChains-1, oldest, walks-maxChains, kept, maxChains)
	}
}
