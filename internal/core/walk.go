package core

import (
	"bytes"
	"maps"
	"slices"
	"time"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
	"atum/internal/smr"
)

// applyWalkStart launches a random walk agreed by the vgroup. The walk's
// randomness is fixed here (bulk RNG, §5.1): rwl numbers derived from the
// committed op's digest travel with the walk, so no relay can bias it.
func (n *Node) applyWalkStart(dig crypto.Digest, o walkStartOp) {
	st := n.st
	if st == nil {
		return
	}
	switch o.Purpose {
	case PurposeJoin:
		// Started by processPendingJoins; busy is already held.
	case PurposeShuffle:
		if st.shuffle == nil || st.shuffle.ActiveWalk != (crypto.Digest{}) {
			return // stale shuffle walk
		}
		if len(st.shuffle.Remaining) == 0 || st.shuffle.Remaining[0].ID != o.Member.ID {
			return // not the agreed queue head
		}
		st.shuffle.Remaining = st.shuffle.Remaining[1:]
		if !st.comp.Contains(o.Member.ID) {
			n.shuffleNext()
			return
		}
		st.shuffle.ActiveWalk = dig
		st.shuffle.ActiveMember = o.Member
		st.shuffle.ActiveSeq = o.ShuffleSeq
	case PurposeSplitInsert:
		// Fire-and-forget relocation walk; nothing to track.
	}

	if o.Purpose != PurposeSplitInsert {
		st.walkOrigins = append(st.walkOrigins, walkOrigin{
			WalkID:     dig,
			Purpose:    o.Purpose,
			OriginComp: st.comp,
			Joiner:     o.Joiner,
			JoinerSig:  o.JoinerSig,
			Member:     o.Member,
			ShuffleSeq: o.ShuffleSeq,
		})
		n.walkDeadlines[dig] = n.env.Now() + n.cfg.WalkTimeout
	}

	p := walkPayload{
		WalkID:     dig,
		Purpose:    o.Purpose,
		StepsLeft:  n.cfg.Params.RWL,
		Rands:      prfRands(dig, n.cfg.Params.RWL),
		Origin:     st.comp,
		Joiner:     o.Joiner,
		JoinerSig:  o.JoinerSig,
		Member:     o.Member,
		ShuffleSeq: o.ShuffleSeq,
		Cycle:      o.Cycle,
		NewGroup:   o.NewGroup,
	}
	n.forwardWalk(p, nil)
}

// forwardWalk advances a walk by one step (possibly several local steps
// through self-loop links). chain is this member's certificate chain for the
// steps taken so far (certificate mode).
func (n *Node) forwardWalk(p walkPayload, chain []overlay.StepCert) {
	st := n.st
	if st == nil {
		return
	}
	for {
		if p.StepsLeft <= 0 {
			// The walk ends here, at our own vgroup.
			n.selfArrival(p)
			return
		}
		stepIdx := len(p.Rands) - p.StepsLeft
		if stepIdx < 0 || stepIdx >= len(p.Rands) {
			return // malformed walk
		}
		link := overlay.LinkIndex(int(p.Rands[stepIdx]%uint64(2*n.cfg.Params.HC)), n.cfg.Params.HC)
		dst := st.nbrs.At(link)
		p.StepsLeft--
		if dst.GroupID == 0 {
			n.logf("walk %x DEAD-END: empty neighbor on cycle %d dir %v", p.WalkID[:4], link.Cycle, link.Dir)
			return
		}
		if dst.GroupID == st.comp.GroupID {
			continue // self-loop edge: consume the step locally
		}
		n.learnComp(dst)
		p.Path = append(p.Path, st.comp.Key())
		msgID := walkMsgID(p.WalkID, stepIdx, dst.GroupID)
		if n.cfg.Mode == smr.ModeAsync {
			// Certificate-mode hops carry a sender-specific attachment (this
			// member's chain share), which the batch frame cannot.
			attach := encodePayload(walkAttachment{
				Chain:   chain,
				StepSig: overlay.SignStep(n.signer, n.cfg.Identity.ID, p.WalkID, len(chain), dst),
			})
			n.egress.GroupAttach(st.comp, dst, group.BatchItem{Kind: kindWalk, MsgID: msgID, Payload: encodePayload(p)}, attach)
			return
		}
		n.sendGroup(st.comp, dst, kindWalk, msgID, encodePayload(p))
		return
	}
}

// selfArrival handles a walk that terminates at this vgroup while being
// forwarded locally: each member proposes the arrival for agreement.
func (n *Node) selfArrival(p walkPayload) {
	payload := encodePayload(p)
	n.proposeOp(inputVoteOp{
		Kind:    kindWalk,
		MsgID:   walkMsgID(p.WalkID, len(p.Rands)-1, n.st.comp.GroupID),
		Src:     n.st.comp.Key(),
		Payload: payload,
	})
}

// handleWalkHop processes a walk hop accepted from another vgroup. Pure
// forwarding needs no agreement (the carried randomness makes every
// member's decision identical); terminal hops are proposed for agreement.
func (n *Node) handleWalkHop(acc group.Accepted, p walkPayload) {
	n.logf("walk hop %x stepsLeft=%d from %v", p.WalkID[:4], p.StepsLeft, acc.Src.GroupID)
	n.learnComp(p.Origin)
	var chain []overlay.StepCert
	if n.cfg.Mode == smr.ModeAsync {
		chain = n.mergeChain(acc, p)
	}
	if p.StepsLeft == 0 {
		// Remember the chain so the agreed arrival handler can attach it
		// to replies (the chain is member-local; replies carry it in the
		// sender-specific attachment).
		if chain != nil {
			n.rememberChain(p.WalkID, chain)
		}
		n.voteInput(acc)
		return
	}
	n.forwardWalk(p, chain)
}

// rememberChain stores a member-local certificate chain until the walk's
// arrival is applied (applyWalkArrival); past maxChains the oldest gives way.
func (n *Node) rememberChain(id crypto.Digest, chain []overlay.StepCert) {
	if _, ok := n.lastChains[id]; !ok {
		n.chainQ = append(n.chainQ, id)
		if len(n.chainQ) > maxChains {
			delete(n.lastChains, n.chainQ[0])
			n.chainQ = n.chainQ[1:]
		}
	}
	n.lastChains[id] = chain
}

// mergeChain reconstructs a valid certificate chain ending at this vgroup
// from the attachments of the accepting majority: any valid prefix chain
// plus the senders' endorsements of this step (§5.1).
func (n *Node) mergeChain(acc group.Accepted, p walkPayload) []overlay.StepCert {
	srcComp, ok := n.lookupComp(acc.Src)
	if !ok {
		return nil
	}
	step := len(p.Path) - 1 // the step that delivered the walk to us
	if step < 0 {
		return nil
	}
	// Which composition of ours did the senders endorse? Usually the
	// current one; during reconfiguration races it can be a recent epoch.
	for _, cand := range n.ownComps() {
		msg := overlay.CertBytes(p.WalkID, step, cand)
		candSigs := make([]overlay.CertSig, 0, len(acc.Attachments))
		var prefix []overlay.StepCert
		prefixOK := len(p.Path) == 1 // first hop: the origin itself forwarded
		// Ascending voter order: the signature order inside the StepCert and
		// whose prefix chain is forwarded must not depend on map iteration.
		for _, voter := range slices.Sorted(maps.Keys(acc.Attachments)) {
			att, err := decodeAs[walkAttachment](acc.Attachments[voter])
			if err != nil || att.StepSig.Node != voter {
				continue
			}
			idx := srcComp.Index(voter)
			if idx < 0 || !n.cfg.Scheme.Verify(srcComp.Members[idx].PubKey, msg, att.StepSig.Sig) {
				continue
			}
			candSigs = append(candSigs, att.StepSig)
			if !prefixOK {
				if final, err := overlay.VerifyChain(n.cfg.Scheme, p.Origin, p.WalkID, att.Chain); err == nil &&
					final.GroupID == srcComp.GroupID {
					prefix = att.Chain
					prefixOK = true
				}
			}
		}
		if len(candSigs) >= srcComp.Majority() && prefixOK {
			cert := overlay.StepCert{Next: cand, Sigs: candSigs}
			return append(append([]overlay.StepCert(nil), prefix...), cert)
		}
	}
	return nil
}

// ownComps returns candidate own compositions, newest first: the current one
// and the three newest older epochs the store holds.
func (n *Node) ownComps() []group.Composition {
	if n.st == nil {
		return nil
	}
	out := []group.Composition{n.st.comp}
	held := n.comps.byGroup[n.st.comp.GroupID]
	for i := len(held) - 1; i >= 0 && len(out) < 4; i-- {
		if held[i].Epoch < n.st.comp.Epoch {
			out = append(out, held[i])
		}
	}
	return out
}

// applyWalkArrival is the agreed handling of a walk that selected this
// vgroup, per purpose.
func (n *Node) applyWalkArrival(dig crypto.Digest, src group.Key, p walkPayload) {
	st := n.st
	if st == nil {
		return
	}
	n.logf("walk ARRIVAL %x purpose=%d", p.WalkID[:4], p.Purpose)
	p.Origin = n.learnComp(p.Origin)
	switch p.Purpose {
	case PurposeJoin:
		if st.findExpected(p.Joiner.ID) < 0 && !st.comp.Contains(p.Joiner.ID) {
			st.expectedJoiners = append(st.expectedJoiners, expectedJoiner{WalkID: p.WalkID, Joiner: p.Joiner})
			n.walkDeadlines[p.WalkID] = n.env.Now() + n.cfg.WalkTimeout
		}
		n.sendWalkReply(p, walkResult{
			WalkID: p.WalkID, Purpose: PurposeJoin,
			Target: st.comp, Accept: true, Member: p.Joiner,
		})
		if n.cfg.Mode == smr.ModeAsync {
			// Tell the joiner directly; the chain proves who we are.
			n.sendJoinRedirect(p.Joiner.ID, p.WalkID)
		}
	case PurposeShuffle:
		accept := !st.busy && p.Origin.GroupID != st.comp.GroupID && st.comp.N() > 0
		res := walkResult{
			WalkID: p.WalkID, Purpose: PurposeShuffle,
			Target: st.comp, Accept: accept,
			Member: p.Member, ShuffleSeq: p.ShuffleSeq,
		}
		if accept {
			partner := st.comp.Members[prfPick(dig, 0x5f3759df, st.comp.N())]
			res.Partner = partner
			st.busy = true
			st.pendingExch = append(st.pendingExch, pendingExchange{
				WalkID:     p.WalkID,
				OriginComp: p.Origin,
				Partner:    partner,
				Member:     p.Member,
			})
			// The partner side waits much longer than the origin, so the
			// origin always cancels first on timeouts.
			n.walkDeadlines[p.WalkID] = n.env.Now() + 4*n.cfg.WalkTimeout
		}
		n.sendWalkReply(p, res)
	case PurposeSplitInsert:
		n.applySplitInsert(p)
	}
	// The replies above were the chain's only readers.
	delete(n.lastChains, p.WalkID)
	n.chainQ = slices.DeleteFunc(n.chainQ, func(id crypto.Digest) bool { return id == p.WalkID })
}

// sendJoinRedirect sends this member's copy of the join redirect straight
// to the joiner (certificate mode), with its chain attached.
func (n *Node) sendJoinRedirect(joiner ids.NodeID, walkID crypto.Digest) {
	st := n.st
	payload := encodePayload(joinRedirectPayload{WalkID: walkID, Target: st.comp})
	attach := encodePayload(walkAttachment{Chain: n.lastChains[walkID]})
	n.egress.ChainedTo(st.comp, joiner, kindJoinRedirect, replyMsgID(walkID, 999), payload, attach)
}

// sendWalkReply returns a walk result to the originating vgroup, by direct
// reply with certificates or by the backward phase (§5.1).
func (n *Node) sendWalkReply(p walkPayload, res walkResult) {
	st := n.st
	payload := encodePayload(res)
	if n.cfg.Mode == smr.ModeAsync {
		var attach []byte
		if chain, ok := n.lastChains[p.WalkID]; ok {
			attach = encodePayload(walkAttachment{Chain: chain})
		}
		n.egress.Chained(st.comp, p.Origin, kindWalkResult, replyMsgID(p.WalkID, 0), payload, attach)
		return
	}
	// Backward phase: relay through the visited vgroups in reverse.
	if len(p.Path) == 0 {
		// The origin is ourselves (walk ended where it started).
		n.applyWalkResult(res)
		return
	}
	bp := backwardPayload{WalkID: p.WalkID, Path: p.Path, Result: res}
	n.relayBackward(bp)
}

// relayBackward sends one backward hop toward the origin.
func (n *Node) relayBackward(bp backwardPayload) {
	st := n.st
	if st == nil || len(bp.Path) == 0 {
		return
	}
	hop := len(bp.Path) - 1
	nextKey := bp.Path[hop]
	bp.Path = bp.Path[:hop]
	next, ok := n.lookupComp(nextKey)
	if !ok {
		return // route lost (rare reconfiguration race; origin times out)
	}
	n.sendGroup(st.comp, next, kindWalkBackward, replyMsgID(bp.WalkID, hop), encodePayload(bp))
}

// handleBackward relays a backward-phase reply; at the origin it becomes an
// agreed input.
func (n *Node) handleBackward(acc group.Accepted, bp backwardPayload) {
	st := n.st
	if st == nil {
		return
	}
	if len(bp.Path) == 0 {
		// We are the origin.
		n.proposeOp(inputVoteOp{Kind: kindWalkResult, MsgID: acc.MsgID, Src: acc.Src,
			Payload: encodePayload(bp.Result)})
		return
	}
	n.relayBackward(bp)
}

// handleDirectWalkReply verifies a certificate-mode direct reply and, if the
// chain checks out, proposes the result for agreement. Anyone can send a
// copy, and an empty chain attests only the origin: such a copy counts when a
// member of the origin composition sends it, naming the origin's GroupID, and
// it never accepts an exchange — a walk that ends where it started does not
// (applyWalkArrival), so only a forger's would.
func (n *Node) handleDirectWalkReply(from ids.NodeID, m group.GroupMsg) {
	st := n.st
	if st == nil || m.Payload == nil {
		return
	}
	if crypto.Hash(m.Payload) != m.PayloadDigest {
		return
	}
	res, err := decodeAs[walkResult](m.Payload)
	if err != nil {
		return
	}
	idx := st.findWalk(res.WalkID)
	if idx < 0 {
		return
	}
	wo := st.walkOrigins[idx]
	origin := wo.OriginComp
	if origin.N() == 0 {
		origin = st.comp
	}
	var chain []overlay.StepCert
	if m.Attach != nil {
		if att, err := decodeAs[walkAttachment](m.Attach); err == nil {
			chain = att.Chain
		}
	}
	final, err := overlay.VerifyChain(n.cfg.Scheme, origin, res.WalkID, chain)
	if err != nil {
		return
	}
	if len(chain) > 0 && final.Digest() != res.Target.Digest() {
		return
	}
	if len(chain) == 0 && (!origin.Contains(from) || res.Target.GroupID != origin.GroupID ||
		wo.Purpose == PurposeShuffle && res.Accept) {
		return
	}
	n.proposeOp(inputVoteOp{Kind: kindWalkResult, MsgID: m.MsgID,
		Src: res.Target.Key(), Payload: m.Payload})
}

// applyWalkResult is the agreed handling of a walk reply at its origin. A
// reply teaches the vgroup no composition of its own: those come from its own
// agreement, and a reply's Target may be a forger's.
func (n *Node) applyWalkResult(res walkResult) {
	st := n.st
	if st == nil {
		return
	}
	n.logf("walk RESULT %x accept=%v", res.WalkID[:4], res.Accept)
	own := res.Target.GroupID == st.comp.GroupID
	idx := st.findWalk(res.WalkID)
	if idx < 0 {
		// Late reply for an abandoned walk: release the partner if it
		// reserved itself for us.
		if res.Purpose == PurposeShuffle && res.Accept && res.Target.N() > 0 && !own {
			n.learnComp(res.Target)
			pl := encodePayload(exchangeCancelPayload{WalkID: res.WalkID})
			n.sendGroup(st.comp, res.Target, kindExchangeCancel, replyMsgID(res.WalkID, 7), pl)
		}
		return
	}
	wo := st.walkOrigins[idx]
	st.removeWalk(res.WalkID)
	delete(n.walkDeadlines, res.WalkID)
	if !own {
		res.Target = n.learnComp(res.Target)
	}

	switch wo.Purpose {
	case PurposeJoin:
		st.busy = false
		if n.cfg.Mode != smr.ModeAsync && res.Target.N() > 0 {
			// Backward mode: we (the contact vgroup) relay the redirect.
			payload := encodePayload(joinRedirectPayload{WalkID: res.WalkID, Target: res.Target})
			n.egress.ToNode(st.comp, wo.Joiner.ID, kindJoinRedirect, replyMsgID(res.WalkID, 998), payload)
		}
		n.checkResize()
		n.processPendingJoins()
	case PurposeShuffle:
		n.finishExchange(wo, res)
	}
}

// applyWalkTimeout abandons a pending walk once f+1 members saw it expire.
func (n *Node) applyWalkTimeout(o walkTimeoutOp) {
	st := n.st
	if st == nil {
		return
	}
	n.logf("walk timeout FIRED %x (have walk: %v)", o.WalkID[:4], st.findWalk(o.WalkID) >= 0)
	delete(n.walkDeadlines, o.WalkID)
	// Expected joiner that never showed up.
	if i := n.findExpectedByWalk(o.WalkID); i >= 0 {
		st.expectedJoiners = append(st.expectedJoiners[:i], st.expectedJoiners[i+1:]...)
	}
	// Partner-side reservation that was never confirmed or cancelled.
	if i := st.findPendingExch(o.WalkID); i >= 0 {
		st.pendingExch = append(st.pendingExch[:i], st.pendingExch[i+1:]...)
		st.busy = false
		n.processPendingJoins()
	}
	// Origin-side pending walk.
	if idx := st.findWalk(o.WalkID); idx >= 0 {
		wo := st.walkOrigins[idx]
		st.removeWalk(o.WalkID)
		switch wo.Purpose {
		case PurposeJoin:
			st.busy = false
			n.checkResize()
			n.processPendingJoins()
		case PurposeShuffle:
			if st.shuffle != nil && st.shuffle.ActiveWalk == o.WalkID {
				st.shuffle.ActiveWalk = crypto.Digest{}
				n.counts.ExchangesSuppressed++
				n.shuffleNext()
			}
		case PurposeMerge:
			st.busy = false
			st.mergeAttempt++
			n.mergeRetryAt = n.env.Now() + 2*n.cfg.RoundDuration
		}
	}
}

func (n *Node) findExpectedByWalk(id crypto.Digest) int {
	for i := range n.st.expectedJoiners {
		if n.st.expectedJoiners[i].WalkID == id {
			return i
		}
	}
	return -1
}

// walkDeadlineTick proposes timeout ops for locally expired walks, in
// ascending WalkID: proposal order fixes OpIDs and the replica's batch order,
// and map order would make two identically seeded runs diverge.
func (n *Node) walkDeadlineTick(now time.Duration) {
	var expired []crypto.Digest
	for id, dl := range n.walkDeadlines {
		if now > dl {
			expired = append(expired, id)
		}
	}
	slices.SortFunc(expired, func(a, b crypto.Digest) int { return bytes.Compare(a[:], b[:]) })
	for _, id := range expired {
		delete(n.walkDeadlines, id)
		n.logf("proposing walk timeout %x", id[:4])
		n.proposeOp(walkTimeoutOp{WalkID: id})
	}
}

// mergeRetryTick re-attempts a merge after a rejection backoff.
func (n *Node) mergeRetryTick(now time.Duration) {
	if n.mergeRetryAt > 0 && now > n.mergeRetryAt {
		n.mergeRetryAt = 0
		n.checkResize()
	}
}
