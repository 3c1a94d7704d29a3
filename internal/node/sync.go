// Catch-up: incremental sync, chunked snapshot offers and the per-peer
// offer backoff. It owns sess, touched only by the endpoint's delivery
// goroutine and so unlocked, and offerRejects, suppressedLog,
// snapOfferSeq, frozenOffer, frozenOfferSet and stats, guarded by mu.

package node

import (
	"errors"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/wire"
)

// offerRejectLimit is how many consecutive resurrection-rejected catch-up
// offers a peer may send before the node stops reading its offers
// entirely (satellite defense against forged-snapshot spam). The counter
// resets when the node itself asks that peer for data again.
const offerRejectLimit = 3

// SyncStats counts the node's catch-up traffic: snapshot offers by
// outcome and chunk flow in both directions.
type SyncStats struct {
	// OffersStarted..OffersIgnored count received snapshot offers:
	// accepted-and-streaming, adopted, failed mid-stream, rejected by the
	// resurrection floor, dropped before decode because the sender is in
	// rejection backoff, and dropped because another offer was already
	// streaming.
	OffersStarted    uint64
	OffersCompleted  uint64
	OffersAborted    uint64
	OffersRejected   uint64
	OffersSuppressed uint64
	OffersIgnored    uint64
	// ChunksSent and ChunksReceived count snapshot chunks on the wire.
	ChunksSent     uint64
	ChunksReceived uint64
}

// snapSession is one inbound snapshot offer being restored. Its chunks
// arrive on the endpoint's delivery goroutine, which adds each block to
// the restorer as it decodes it, so nothing of the offer outlives the
// chunk in hand but the chain being rebuilt.
type snapSession struct {
	sender string
	last   wire.SnapshotPayload // last accepted chunk's header (no blocks)
	r      *chain.Restorer
}

// SyncStats snapshots the node's catch-up counters.
func (n *Node) SyncStats() SyncStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// handleBlock appends a gossiped block. It is decoded, not shape-checked:
// AppendBlock checks the shape of every block it did not build.
func (n *Node) handleBlock(env wire.Envelope) {
	b, err := block.Decode(env.Body)
	if err != nil {
		return
	}
	c := n.Chain()
	if err := c.AppendBlock(b); err != nil {
		// A gap means we fell behind (e.g. a healed partition): ask the
		// sender for the missing suffix (§V-B.4 recovery via anchors).
		if errors.Is(err, chain.ErrNotNext) && b.Header.Number > c.Head().Number+1 {
			n.requestSync(env.Sender)
		}
		// Otherwise: stale or conflicting block. A summary mismatch means
		// WE may be the forked party only if the majority agrees with the
		// sender; that is decided by the vote, not here.
		return
	}
	n.afterAppend()
}

// requestSync asks peer for everything after our head. Asking is a
// deliberate act, so it lifts any offer-rejection backoff against that
// peer: the answer we just solicited will be read. A node whose store
// failed asks nothing: it could append or adopt none of the answer.
func (n *Node) requestSync(peer string) {
	if n.ep == nil || n.StoreErr() != nil {
		return
	}
	n.mu.Lock()
	delete(n.offerRejects, peer)
	delete(n.suppressedLog, peer)
	n.mu.Unlock()
	body := wire.EncodeSyncReq(wire.SyncReqPayload{HeadNumber: n.Chain().Head().Number})
	_ = n.ep.Send(peer, wire.KindSyncReq, wire.SealEnvelope(n.key, wire.KindSyncReq, body))
}

// offerGate applies the per-peer offer backoff: once a peer has had
// offerRejectLimit consecutive offers rejected by the resurrection
// floor, further unsolicited offers are dropped before decoding (logged
// once per suppression episode). Returns false when the offer must be
// ignored.
func (n *Node) offerGate(peer string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.equivocators[peer] {
		n.stats.OffersSuppressed++
		return false
	}
	if n.offerRejects[peer] < offerRejectLimit {
		return true
	}
	n.stats.OffersSuppressed++
	if !n.suppressedLog[peer] {
		n.suppressedLog[peer] = true
		n.logf("node %s: suppressing catch-up offers from %s after %d resurrection-rejected offers", n.name, peer, n.offerRejects[peer])
	}
	return false
}

// noteOfferRejected records a resurrection-floor rejection of an offer
// from peer; noteOfferAccepted clears the strike counter.
func (n *Node) noteOfferRejected(peer string) {
	n.mu.Lock()
	n.offerRejects[peer]++
	n.stats.OffersRejected++
	n.mu.Unlock()
}

func (n *Node) noteOfferAccepted(peer string) {
	n.mu.Lock()
	delete(n.offerRejects, peer)
	delete(n.suppressedLog, peer)
	n.mu.Unlock()
}

// handleSyncReq serves catch-up data. A requester still inside our live
// window gets the incremental suffix it can append directly; one whose
// continuation point was already truncated away gets the
// snapshot-anchored status quo instead — marker, head, and the live
// blocks — which it adopts wholesale (the marker block "is a trusted
// anchor … already approved by the anchor nodes", §IV-C).
func (n *Node) handleSyncReq(env wire.Envelope) {
	if n.ep == nil {
		return
	}
	req, err := wire.DecodeSyncReq(env.Body)
	if err != nil {
		return
	}
	n.serveSync(env.Sender, req.HeadNumber+1)
}

// serveSync sends peer our blocks from number from on: the incremental
// suffix while from is inside our live window, else a snapshot offer.
func (n *Node) serveSync(peer string, from uint64) {
	if n.ep == nil {
		return
	}
	c := n.Chain()
	if from < c.Marker() {
		n.sendSnapshot(peer, c)
		return
	}
	resp := wire.SyncRespPayload{}
	for b := range c.BlocksSeq() {
		if b.Header.Number < from {
			continue
		}
		// Incremental catch-up may be partial: the requester appends
		// what fits under the wire bound, and the gap its next gossip
		// reveals triggers another sync round for the rest.
		if len(resp.Blocks) == wire.MaxSyncBlocks {
			break
		}
		resp.Blocks = append(resp.Blocks, b.Encode())
	}
	if len(resp.Blocks) == 0 {
		return
	}
	_ = n.ep.Send(peer, wire.KindSyncResp,
		wire.SealEnvelope(n.key, wire.KindSyncResp, wire.EncodeSyncResp(resp)))
}

// snapChunkBlocks is the sender-side chunk size. It defaults to the wire
// maximum; tests shrink it (same package) to exercise multi-chunk offers
// without sealing hundreds of blocks first. Receivers accept any chunk
// up to the wire bound, so the two sides need not agree.
var snapChunkBlocks = wire.MaxSnapshotChunkBlocks

// sendSnapshot streams our snapshot-anchored live chain to peer as a
// sequence of bounded chunks sharing one offer ID. The offer's marker
// and head are taken from the streamed blocks themselves, so the stream
// is internally consistent even if a truncation lands concurrently. At
// no point does the whole live window sit encoded in memory — the send
// buffer holds at most one chunk.
//
// A ForgedSnapshot node serves the first offer it ever built, forever:
// the replayed chunks are re-signed fresh (the forger IS a quorum
// member; its signatures are genuine) but anchor at a marker the quorum
// has long moved past — the receiver's resurrection floor is what must
// catch that.
func (n *Node) sendSnapshot(peer string, c *chain.Chain) {
	n.mu.Lock()
	n.snapOfferSeq++
	offerID := n.snapOfferSeq
	frozen := n.frozenOfferSet
	replay := append([]wire.SnapshotPayload(nil), n.frozenOffer...)
	n.mu.Unlock()

	if n.byzantine.ReplaysStaleSnapshot() && frozen {
		for _, p := range replay {
			p.OfferID = offerID
			n.sendSnapshotChunk(peer, p)
		}
		return
	}

	var sent []wire.SnapshotPayload
	base := wire.SnapshotPayload{OfferID: offerID}
	chunk := base
	idx := uint32(0)
	flush := func(last bool) {
		chunk.Chunk = idx
		chunk.Last = last
		n.sendSnapshotChunk(peer, chunk)
		sent = append(sent, chunk)
		idx++
		next := base
		next.Marker = chunk.Head + 1
		chunk = next
	}
	for b := range c.BlocksSeq() {
		if len(chunk.Blocks) >= snapChunkBlocks {
			flush(false)
		}
		if len(chunk.Blocks) == 0 {
			chunk.Marker = b.Header.Number
		}
		chunk.Head = b.Header.Number
		chunk.Blocks = append(chunk.Blocks, b.Encode())
	}
	if len(chunk.Blocks) == 0 {
		return
	}
	flush(true)

	if n.byzantine.ReplaysStaleSnapshot() {
		n.mu.Lock()
		if !n.frozenOfferSet {
			n.frozenOffer = sent
			n.frozenOfferSet = true
		}
		n.mu.Unlock()
	}
}

func (n *Node) sendSnapshotChunk(peer string, p wire.SnapshotPayload) {
	_ = n.ep.Send(peer, wire.KindSnapshotResp,
		wire.SealEnvelope(n.key, wire.KindSnapshotResp, wire.EncodeSnapshot(p)))
	n.mu.Lock()
	n.stats.ChunksSent++
	n.mu.Unlock()
}

func (n *Node) handleSyncResp(env wire.Envelope) {
	// Only quorum members are trusted for catch-up data, and peers in
	// offer-rejection backoff are not read at all.
	if !n.quorum.Contains(env.Sender) || !n.offerGate(env.Sender) {
		return
	}
	resp, err := wire.DecodeSyncResp(env.Body)
	if err != nil || len(resp.Blocks) == 0 {
		return
	}
	c := n.Chain()
	// Resurrection guard: our own deletion manifest is authoritative.
	// Any offered block below the highest marker we recorded a deletion
	// for would re-introduce data the quorum erased — drop the whole
	// offer, and give the sender a strike toward offer suppression.
	floor := c.ResurrectionFloor()
	appended := false
	for _, raw := range resp.Blocks {
		b, err := block.Decode(raw) // AppendBlock checks the shape
		if err != nil {
			return
		}
		if b.Header.Number < floor {
			n.noteOfferRejected(env.Sender)
			return
		}
		if err := c.AppendBlock(b); err != nil {
			return // stale or diverged; a later gossip round retries
		}
		appended = true
	}
	if appended {
		n.noteOfferAccepted(env.Sender)
	}
	n.afterAppend()
}

// handleSnapshotResp restores a quorum peer's chunked snapshot offer in
// place. Chunk 0 opens a session with a chain.Restorer — after the
// resurrection-floor check on the offered marker — and every in-order
// chunk adds its blocks to it one at a time as it decodes them, so the
// offer costs one chunk of memory beyond the chain being rebuilt,
// whatever its length. These are a peer's bytes: the Restorer verifies
// every owner signature, which a node reopening its own store
// (chain.Open) does not. The final chunk finishes the restore, and the
// restored chain is adopted (adoptRestored) only when it is
// integrity-clean and strictly ahead of the local head. Out-of-order,
// cross-offer, or non-contiguous chunks, and any block the Restorer
// refuses, abort the session.
func (n *Node) handleSnapshotResp(env wire.Envelope) {
	if !n.quorum.Contains(env.Sender) || !n.offerGate(env.Sender) {
		return
	}
	p, err := wire.DecodeSnapshot(env.Body)
	if err != nil {
		return
	}
	n.mu.Lock()
	n.stats.ChunksReceived++
	n.mu.Unlock()
	sess := n.sess
	if p.Chunk == 0 {
		if sess != nil {
			if sess.sender == env.Sender {
				// The peer restarted its offer (e.g. after a crash):
				// drop the stale session and start over.
				n.abortSession()
			} else {
				// One inbound offer at a time bounds restore work and
				// memory; competing offers retry via later sync rounds.
				n.mu.Lock()
				n.stats.OffersIgnored++
				n.mu.Unlock()
				return
			}
		}
		// Resurrection guard: a snapshot anchored below our own recorded
		// deletion floor would hand back blocks this node witnessed the
		// quorum delete (e.g. a stale or malicious peer replaying an old
		// status quo). The floor outlives the blocks themselves — it is
		// re-seeded from the store's DELETIONS log on restart — so the
		// check holds even when the local chain was rebuilt from scratch.
		if p.Marker < n.Chain().ResurrectionFloor() {
			n.noteOfferRejected(env.Sender)
			return
		}
		sess = &snapSession{sender: env.Sender, r: chain.NewRestorer(n.chainCfg)}
		n.sess = sess
		n.mu.Lock()
		n.stats.OffersStarted++
		n.mu.Unlock()
	} else {
		if sess == nil || sess.sender != env.Sender {
			return // no session (or someone else's): drop the straggler
		}
		if err := wire.SnapshotChunkFollows(sess.last, p); err != nil {
			n.abortSession() // gap, replay, or cross-offer interleave
			return
		}
	}
	for _, raw := range p.Blocks {
		b, err := block.Decode(raw) // Add checks the shape
		if err == nil {
			err = sess.r.Add(b)
		}
		if err != nil {
			n.abortSession()
			return
		}
	}
	sess.last = p
	sess.last.Blocks = nil
	if !p.Last {
		return
	}
	n.sess = nil
	// Each Add ran every check VerifyIntegrity would: shape and links.
	restored, err := sess.r.Finish()
	if err != nil || !n.adoptRestored(restored) {
		n.abortSession()
		return
	}
	n.noteOfferAccepted(env.Sender)
	n.mu.Lock()
	n.stats.OffersCompleted++
	n.mu.Unlock()
	// The adopted chain may sit exactly on a summary boundary; the
	// adopter must join that vote like any appender would, or a cluster
	// with many freshly adopted nodes can starve the threshold (seen in
	// the crash-restart-storm drill).
	n.afterAppend()
}

// abortSession drops the inbound offer, if one is open, and counts the
// offer as aborted. The restorer holds nothing but memory.
func (n *Node) abortSession() {
	n.sess = nil
	n.mu.Lock()
	n.stats.OffersAborted++
	n.mu.Unlock()
}
