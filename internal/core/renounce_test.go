package core

import (
	"slices"
	"testing"
	"time"

	"atum/internal/group"
	"atum/internal/ids"
)

// TestRenounceRemovesOnlyTheSignedSender drives the renounce path end to end
// on the simulator: a member's signed Renounce (sendRenounce) is proposed by
// every member it reaches (handleRenounce) and removes it in one agreed
// reconfiguration (applyRenounce), with no eviction quorum. A Renounce with a
// bad signature, one naming another vgroup, and one sent by another node than
// the one it renounces each change nothing.
func TestRenounceRemovesOnlyTheSignedSender(t *testing.T) {
	for _, mode := range modes() {
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(t, mode, 13, func(cfg *Config) { cfg.EvictAfter = time.Hour })
			nodes := h.bootstrapSystem(mode, 6, 60*time.Second)
			h.net.Run(h.net.Now() + time.Second)
			before := nodes[0].Comp()
			if before.N() != 6 {
				t.Fatalf("the six nodes formed a vgroup of %d", before.N())
			}
			r, other := nodes[5], nodes[4]
			signed := func(target ids.GroupID, nonce uint64) Renounce {
				return Renounce{Node: r.Identity(), Target: target, Nonce: nonce,
					Sig: r.signer.Sign(renounceBytes(r.Identity(), target, nonce))}
			}
			// send hands m to every other member of the vgroup, from sender.
			send := func(sender *Node, m Renounce) {
				for _, mem := range before.Members {
					if mem.ID != sender.cfg.Identity.ID {
						sender.egress.Node(mem.ID, m)
					}
				}
			}
			unchanged := func(label string) {
				t.Helper()
				h.net.Run(h.net.Now() + 5*time.Second)
				for _, n := range nodes {
					if !n.IsMember() || !n.Comp().Equal(before) {
						t.Fatalf("%s: %v ends in %v/%d %v, want the vgroup unchanged at epoch %d", label, n.cfg.Identity.ID,
							n.Comp().GroupID, n.Comp().Epoch, ids.IdentityIDs(n.Comp().Members), before.Epoch)
					}
				}
			}

			bad := signed(before.GroupID, 101)
			bad.Sig = slices.Clone(bad.Sig)
			bad.Sig[0] ^= 0xff
			send(r, bad)
			unchanged("a Renounce with a bad signature")

			send(r, signed(before.GroupID+1, 102))
			unchanged("a Renounce naming another vgroup")

			send(other, signed(before.GroupID, 103))
			unchanged("a Renounce sent by another node than the one it renounces")

			r.sendRenounce(before)
			want := ids.IdentityIDs(ids.Without(before.Members, r.cfg.Identity.ID))
			removed := func() bool {
				for _, n := range nodes[:5] {
					if !n.Comp().Contains(nodes[0].cfg.Identity.ID) || n.Comp().Contains(r.cfg.Identity.ID) {
						return false
					}
				}
				return true
			}
			if !h.runUntil(removed, 30*time.Second) {
				t.Fatalf("the signed renounce did not remove %v within 30 s", r.cfg.Identity.ID)
			}
			h.net.Run(h.net.Now() + 2*time.Second)
			for _, n := range nodes[:5] {
				got := n.Comp()
				if got.Key() != (group.Key{GroupID: before.GroupID, Epoch: before.Epoch + 1}) || !slices.Equal(ids.IdentityIDs(got.Members), want) {
					t.Errorf("%v ends in %v/%d %v, want %v/%d %v: one reconfiguration removing only the renouncer", n.cfg.Identity.ID,
						got.GroupID, got.Epoch, ids.IdentityIDs(got.Members), before.GroupID, before.Epoch+1, want)
				}
			}
			if r.IsMember() {
				t.Errorf("the renouncer still reports membership in %v/%d", r.Comp().GroupID, r.Comp().Epoch)
			}
			if ev := h.sum(func(s Stats) uint64 { return s.Evictions }); ev != 0 {
				t.Errorf("%d evictions counted: a renounce needs no eviction quorum", ev)
			}
			h.checkMembershipConsistent()
		})
	}
}
