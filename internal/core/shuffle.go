package core

import (
	"time"

	"atum/internal/crypto"
	"atum/internal/ids"
)

// Random walk shuffling (paper §3.2): after a node joins or leaves a
// vgroup, the vgroup refreshes its composition by exchanging its members
// with nodes selected uniformly at random from the whole system. Exchanges
// run one at a time; a partner vgroup that is itself reconfiguring rejects
// the exchange, which *suppresses* it — the effect Fig. 13 measures under
// aggressive growth.

// applyShuffleStart begins a whole-group shuffle. dig is the committed op's
// content digest: the shuffle order is derived from the bytes the SMR layer
// agreed on, never from a local re-encoding (agreed bytes are the only
// encoding every member is guaranteed to share).
func (n *Node) applyShuffleStart(dig crypto.Digest, o shuffleStartOp) {
	st := n.st
	if st == nil || st.shuffle != nil || o.Epoch != st.comp.Epoch {
		return
	}
	if n.isAlone() {
		// A single-vgroup system has nobody to exchange with. Admissions
		// queued behind the reconfiguration must resume here: nothing else
		// will (the shuffle-completion drain never runs when no shuffle
		// starts), and a stalled queue blocks its joiners' retries forever —
		// applyJoin dedups on the queued entry.
		n.checkResize()
		n.processPendingJoins()
		return
	}
	seed := crypto.Hash(dig[:], []byte("shuffle-order"))
	st.busy = true
	st.shuffle = &shuffleState{
		Epoch:     o.Epoch,
		Remaining: prfShuffleIdentities(seed, st.comp.Members),
	}
	n.shuffleNext() // arms the first cooldown
}

// shuffleNext advances the shuffle after an exchange resolves: it finishes
// the shuffle when no members remain, or arms the cooldown before the next
// exchange. The cooldown gives neighbor-composition updates time to commit
// at adjacent vgroups; exchanging at full speed starves the links that the
// exchanges themselves need (§7).
func (n *Node) shuffleNext() {
	st := n.st
	if st == nil || st.shuffle == nil {
		return
	}
	sh := st.shuffle
	if sh.ActiveWalk != (crypto.Digest{}) {
		return // an exchange is in flight
	}
	// Drop members that already left the vgroup.
	for len(sh.Remaining) > 0 && !st.comp.Contains(sh.Remaining[0].ID) {
		sh.Remaining = sh.Remaining[1:]
	}
	if len(sh.Remaining) == 0 {
		n.counts.ShufflesDone++
		st.shuffle = nil
		st.busy = false
		n.checkResize()
		n.processPendingJoins()
		return
	}
	n.shuffleNextAt = n.env.Now() + 6*n.cfg.RoundDuration
}

// shuffleProposeTick (tick-driven, node-local pacing) proposes the next
// exchange once the cooldown passed. All members propose the same op (the
// head of the replicated Remaining queue), so content-dedup applies.
func (n *Node) shuffleProposeTick(now time.Duration) {
	st := n.st
	if st == nil || st.shuffle == nil || st.shuffle.ActiveWalk != (crypto.Digest{}) {
		return
	}
	if len(st.shuffle.Remaining) == 0 {
		n.shuffleNext()
		return
	}
	if now < n.shuffleNextAt {
		return
	}
	sh := st.shuffle
	n.proposeOp(walkStartOp{
		GroupID:    st.comp.GroupID,
		Purpose:    PurposeShuffle,
		Member:     sh.Remaining[0],
		ShuffleSeq: sh.ActiveSeq + 1,
		Nonce:      sh.Epoch<<20 | uint64(sh.ActiveSeq+1),
	})
}

// finishExchange handles the partner's answer to a shuffle exchange.
func (n *Node) finishExchange(wo walkOrigin, res walkResult) {
	st := n.st
	if st == nil || st.shuffle == nil || st.shuffle.ActiveWalk != wo.WalkID {
		return
	}
	st.shuffle.ActiveWalk = crypto.Digest{}

	if !res.Accept || res.Target.N() == 0 || res.Partner.ID == 0 {
		n.counts.ExchangesSuppressed++
		n.shuffleNext()
		return
	}
	outgoing := wo.Member
	incoming := res.Partner
	if !st.comp.Contains(outgoing.ID) || st.comp.Contains(incoming.ID) {
		// Our member vanished (eviction race) or theirs is somehow already
		// here; release the partner's reservation.
		n.learnComp(res.Target)
		pl := encodePayload(exchangeCancelPayload{WalkID: wo.WalkID})
		n.sendGroup(st.comp, res.Target, kindExchangeCancel, replyMsgID(wo.WalkID, 7), pl)
		n.counts.ExchangesSuppressed++
		n.shuffleNext()
		return
	}

	n.counts.ExchangesCompleted++
	n.learnComp(res.Target)

	// Tell the partner vgroup to perform its half, stamped with our
	// pre-exchange composition.
	confirm := encodePayload(exchangeConfirmPayload{
		WalkID:    wo.WalkID,
		Partner:   incoming,
		Member:    outgoing,
		OriginOld: st.comp,
	})
	n.sendGroup(st.comp, res.Target, kindExchangeConfirm, replyMsgID(wo.WalkID, 8), confirm)

	// If we are the member being exchanged away, trust the partner vgroup
	// to send our snapshot.
	if outgoing.ID == n.cfg.Identity.ID {
		n.expectSnapshotFrom(res.Target)
	}

	n.reconfigure(ids.Without(st.comp.Members, outgoing.ID, incoming), causeExchange)
	// After reconfigure n.st survives for remaining members; the shuffle
	// continues in the new epoch.
	if n.st != nil {
		n.shuffleNext()
	}
}

// applyExchangeConfirm performs the partner side of an exchange.
func (n *Node) applyExchangeConfirm(p exchangeConfirmPayload) {
	st := n.st
	if st == nil {
		return
	}
	i := st.findPendingExch(p.WalkID)
	if i < 0 {
		return // already cancelled or timed out
	}
	pe := st.pendingExch[i]
	st.pendingExch = append(st.pendingExch[:i], st.pendingExch[i+1:]...)
	delete(n.walkDeadlines, p.WalkID)
	st.busy = false

	outgoing := pe.Partner
	incoming := pe.Member
	if !st.comp.Contains(outgoing.ID) || st.comp.Contains(incoming.ID) {
		n.checkResize()
		n.processPendingJoins()
		return
	}
	if outgoing.ID == n.cfg.Identity.ID {
		n.expectSnapshotFrom(p.OriginOld)
	}
	n.reconfigure(ids.Without(st.comp.Members, outgoing.ID, incoming), causeExchange)
	if n.st != nil {
		n.processPendingJoins()
	}
}

// applyExchangeCancel releases an exchange reservation.
func (n *Node) applyExchangeCancel(p exchangeCancelPayload) {
	st := n.st
	if st == nil {
		return
	}
	if i := st.findPendingExch(p.WalkID); i >= 0 {
		st.pendingExch = append(st.pendingExch[:i], st.pendingExch[i+1:]...)
		delete(n.walkDeadlines, p.WalkID)
		st.busy = false
		n.checkResize()
		n.processPendingJoins()
	}
}
