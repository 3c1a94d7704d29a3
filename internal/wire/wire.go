// Package wire defines the signed message formats exchanged between
// anchor nodes and clients: block gossip, summary votes, catch-up sync,
// status queries, and entry lookups with inclusion proofs.
package wire

import (
	"errors"
	"fmt"

	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/verify"
)

// Message kinds exchanged between nodes and clients.
const (
	// KindBlock gossips a sealed normal block.
	KindBlock = "block"
	// KindVote carries a quorum vote on the next summary block and
	// marker shift (§IV-C).
	KindVote = "vote"
	// KindStatusReq and KindStatusResp implement the client status-quo
	// query (anti-eclipse anchor, §V-B.4).
	KindStatusReq  = "status_req"
	KindStatusResp = "status_resp"
	// KindLookupReq and KindLookupResp resolve an entry reference with
	// an inclusion proof.
	KindLookupReq  = "lookup_req"
	KindLookupResp = "lookup_resp"
	// KindVoteEvidence relays another node's signed vote envelope
	// verbatim. A node that receives a summary vote whose hash disagrees
	// with its own forwards the envelope to the rest of the quorum; any
	// receiver holding two conflicting signed votes from the same sender
	// for the same round has proof of equivocation and excludes that
	// sender from its tallies. The body is the raw inner envelope, so
	// the original signature stays verifiable by everyone.
	KindVoteEvidence = "vote_evidence"
)

// ErrBadEnvelope is returned when an envelope fails decoding or
// signature verification.
var ErrBadEnvelope = errors.New("wire: bad message envelope")

const envelopeDomain = "seldel/envelope/v1"

// Envelope is a signed message body. Every inter-node message travels in
// one, so a node cannot impersonate another (the proof-of-authority
// engine relies on this for proposer authenticity).
type Envelope struct {
	Sender string
	Kind   string
	Body   []byte
	Sig    []byte
}

func envelopeSigningBytes(sender, kind string, body []byte) []byte {
	e := codec.NewEncoder(64 + len(body))
	e.String(envelopeDomain)
	e.String(sender)
	e.String(kind)
	e.Bytes(body)
	return e.Data()
}

// SealEnvelope signs body on behalf of key and encodes the envelope.
func SealEnvelope(key *identity.KeyPair, kind string, body []byte) []byte {
	sig := key.Sign(envelopeSigningBytes(key.Name(), kind, body))
	e := codec.NewEncoder(128 + len(body))
	e.String(key.Name())
	e.String(kind)
	e.Bytes(body)
	e.Bytes(sig)
	return e.Data()
}

// OpenEnvelope decodes an envelope and verifies its sender's signature
// against the registry through pool, so every receiver of one broadcast
// that shares pool pays for a single Ed25519 check.
// Body and Sig are views into raw (no copy): the transport hands off
// message buffers and never reuses them, and every payload decoder
// copies what it retains, so the envelope's fields stay valid for as
// long as raw does.
func OpenEnvelope(pool *verify.Pool, reg *identity.Registry, raw []byte) (Envelope, error) {
	d := codec.NewDecoder(raw)
	var env Envelope
	env.Sender = d.ReadString()
	env.Kind = d.ReadString()
	env.Body = d.View()
	env.Sig = d.View()
	if err := d.Finish(); err != nil {
		return env, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	if err := pool.VerifySigner(reg, env.Sender, envelopeSigningBytes(env.Sender, env.Kind, env.Body), env.Sig); err != nil {
		return env, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	return env, nil
}

// EncodeEnvelope re-encodes an opened envelope verbatim, byte-for-byte
// identical to the SealEnvelope output it was opened from. Used to relay
// a third party's signed message (vote evidence) without being able to
// re-sign it.
func EncodeEnvelope(env Envelope) []byte {
	e := codec.NewEncoder(128 + len(env.Body))
	e.String(env.Sender)
	e.String(env.Kind)
	e.Bytes(env.Body)
	e.Bytes(env.Sig)
	return e.Data()
}

// VotePayload is the body of a KindVote message.
type VotePayload struct {
	Number  uint64     // summary block number being voted on
	Hash    codec.Hash // locally computed summary hash
	Marker  uint64     // resulting Genesis marker
	Approve bool
	// Repair marks a unicast answer to another node's (re-)announcement.
	// Repair votes are counted but never answered, so vote repair cannot
	// loop even on lossy networks.
	Repair bool
}

// EncodeVote encodes a vote payload.
func EncodeVote(v VotePayload) []byte {
	e := codec.NewEncoder(64)
	e.Uint64(v.Number)
	e.Hash(v.Hash)
	e.Uint64(v.Marker)
	e.Bool(v.Approve)
	e.Bool(v.Repair)
	return e.Data()
}

// DecodeVote decodes a vote payload.
func DecodeVote(raw []byte) (VotePayload, error) {
	d := codec.NewDecoder(raw)
	var v VotePayload
	v.Number = d.Uint64()
	v.Hash = d.Hash()
	v.Marker = d.Uint64()
	v.Approve = d.Bool()
	v.Repair = d.Bool()
	if err := d.Finish(); err != nil {
		return v, fmt.Errorf("wire: decode vote: %w", err)
	}
	return v, nil
}

// StatusPayload is the body of a KindStatusResp message.
type StatusPayload struct {
	ReqID      uint64
	HeadNumber uint64
	HeadHash   codec.Hash
	Marker     uint64
	Forked     bool
}

func EncodeStatus(s StatusPayload) []byte {
	e := codec.NewEncoder(64)
	e.Uint64(s.ReqID)
	e.Uint64(s.HeadNumber)
	e.Hash(s.HeadHash)
	e.Uint64(s.Marker)
	e.Bool(s.Forked)
	return e.Data()
}

func DecodeStatus(raw []byte) (StatusPayload, error) {
	d := codec.NewDecoder(raw)
	var s StatusPayload
	s.ReqID = d.Uint64()
	s.HeadNumber = d.Uint64()
	s.HeadHash = d.Hash()
	s.Marker = d.Uint64()
	s.Forked = d.Bool()
	if err := d.Finish(); err != nil {
		return s, fmt.Errorf("wire: decode status: %w", err)
	}
	return s, nil
}

// LookupReqPayload is the body of a KindLookupReq message.
type LookupReqPayload struct {
	ReqID    uint64
	RefBlock uint64
	RefEntry uint32
}

func EncodeLookupReq(p LookupReqPayload) []byte {
	e := codec.NewEncoder(32)
	e.Uint64(p.ReqID)
	e.Uint64(p.RefBlock)
	e.Uint32(p.RefEntry)
	return e.Data()
}

func DecodeLookupReq(raw []byte) (LookupReqPayload, error) {
	d := codec.NewDecoder(raw)
	var p LookupReqPayload
	p.ReqID = d.Uint64()
	p.RefBlock = d.Uint64()
	p.RefEntry = d.Uint32()
	if err := d.Finish(); err != nil {
		return p, fmt.Errorf("wire: decode lookup request: %w", err)
	}
	return p, nil
}

// LookupRespPayload is the body of a KindLookupResp message. When Found,
// it carries the entry, the header of the block currently holding it,
// the index of the entry within that block, and a Merkle inclusion proof
// against the header's entries root.
type LookupRespPayload struct {
	ReqID       uint64
	Found       bool
	Entry       []byte // canonical entry encoding
	Carried     bool
	HolderBlock []byte   // canonical header encoding of the holding block
	LeafIndex   uint32   // index within Entries or Carried
	LeafCount   uint32   // total leaves in the holding block
	ProofSibs   [][]byte // Merkle proof siblings (32-byte hashes)
	LeafBytes   []byte   // exact leaf encoding proven (entry or carried entry)
}

func EncodeLookupResp(p LookupRespPayload) []byte {
	e := codec.NewEncoder(256)
	e.Uint64(p.ReqID)
	e.Bool(p.Found)
	e.Bytes(p.Entry)
	e.Bool(p.Carried)
	e.Bytes(p.HolderBlock)
	e.Uint32(p.LeafIndex)
	e.Uint32(p.LeafCount)
	e.Uint32(uint32(len(p.ProofSibs)))
	for _, s := range p.ProofSibs {
		e.Bytes(s)
	}
	e.Bytes(p.LeafBytes)
	return e.Data()
}

func DecodeLookupResp(raw []byte) (LookupRespPayload, error) {
	d := codec.NewDecoder(raw)
	var p LookupRespPayload
	p.ReqID = d.Uint64()
	p.Found = d.Bool()
	p.Entry = d.Bytes()
	p.Carried = d.Bool()
	p.HolderBlock = d.Bytes()
	p.LeafIndex = d.Uint32()
	p.LeafCount = d.Uint32()
	n := d.Uint32()
	if err := d.Err(); err != nil {
		return p, fmt.Errorf("wire: decode lookup response: %w", err)
	}
	if n > 1<<16 {
		return p, fmt.Errorf("wire: lookup response proof too large: %d", n)
	}
	for i := uint32(0); i < n; i++ {
		p.ProofSibs = append(p.ProofSibs, d.Bytes())
	}
	p.LeafBytes = d.Bytes()
	if err := d.Finish(); err != nil {
		return p, fmt.Errorf("wire: decode lookup response: %w", err)
	}
	return p, nil
}

// Sync message kinds: catch-up for nodes that fell behind (e.g. after a
// partition heals, §V-B.4).
const (
	// KindSyncReq asks a peer for the blocks after the requester's head.
	KindSyncReq = "sync_req"
	// KindSyncResp carries the requested incremental suffix: blocks the
	// requester can append directly onto its current head.
	KindSyncResp = "sync_resp"
	// KindSnapshotResp answers a sync request whose continuation point
	// was already truncated away on the sender side: it carries the
	// sender's snapshot-anchored live chain — the Genesis marker, the
	// head at capture time, and every live block from the marker on —
	// and the requester adopts it wholesale as its new status quo (the
	// marker block "is a trusted anchor … already approved by the
	// anchor nodes", §IV-C).
	KindSnapshotResp = "snapshot_resp"
)

// SyncReqPayload is the body of a KindSyncReq message.
type SyncReqPayload struct {
	// HeadNumber is the requester's current head block number.
	HeadNumber uint64
}

// EncodeSyncReq encodes a sync request.
func EncodeSyncReq(p SyncReqPayload) []byte {
	e := codec.NewEncoder(8)
	e.Uint64(p.HeadNumber)
	return e.Data()
}

// DecodeSyncReq decodes a sync request.
func DecodeSyncReq(raw []byte) (SyncReqPayload, error) {
	d := codec.NewDecoder(raw)
	var p SyncReqPayload
	p.HeadNumber = d.Uint64()
	if err := d.Finish(); err != nil {
		return p, fmt.Errorf("wire: decode sync request: %w", err)
	}
	return p, nil
}

// SyncRespPayload is the body of a KindSyncResp message.
type SyncRespPayload struct {
	// Blocks are canonical block encodings in ascending order, directly
	// appendable onto the requester's head. The receiver checks them
	// against its OWN deletion manifest (its resurrection floor): a peer
	// cannot talk a node into resurrecting a range the node itself
	// witnessed being deleted.
	Blocks [][]byte
}

// MaxSyncBlocks bounds an incremental sync response. Senders must not
// build payloads beyond it (the node skips the send); receivers reject
// larger ones on decode. Snapshot offers are not bound by it: they are
// chunked (MaxSnapshotChunkBlocks), so an arbitrarily long live chain
// ships as a stream of bounded messages.
const MaxSyncBlocks = 1 << 16

// MaxSnapshotChunkBlocks bounds one snapshot chunk. Both sides stage at
// most this many block encodings per message, which is what keeps the
// snapshot path's memory ceiling independent of the chain length.
const MaxSnapshotChunkBlocks = 512

// EncodeSyncResp encodes a sync response.
func EncodeSyncResp(p SyncRespPayload) []byte {
	e := codec.NewEncoder(256)
	e.Uint32(uint32(len(p.Blocks)))
	for _, b := range p.Blocks {
		e.Bytes(b)
	}
	return e.Data()
}

// DecodeSyncResp decodes a sync response. Blocks are views into raw:
// each is fed straight to block.Decode, which copies everything it
// retains, so the catch-up path decodes a whole batch without
// duplicating the payload bytes first.
func DecodeSyncResp(raw []byte) (SyncRespPayload, error) {
	d := codec.NewDecoder(raw)
	var p SyncRespPayload
	n := d.Uint32()
	if err := d.Err(); err != nil {
		return p, fmt.Errorf("wire: decode sync response: %w", err)
	}
	if n > MaxSyncBlocks {
		return p, fmt.Errorf("wire: sync response too large: %d blocks", n)
	}
	for i := uint32(0); i < n; i++ {
		p.Blocks = append(p.Blocks, d.View())
	}
	if err := d.Finish(); err != nil {
		return p, fmt.Errorf("wire: decode sync response: %w", err)
	}
	return p, nil
}

// SnapshotPayload is the body of one KindSnapshotResp message: one
// chunk of the sender's snapshot-anchored status quo. An offer is a
// stream of chunks sharing an OfferID, each carrying a bounded,
// contiguous run of live block encodings; the receiver feeds them
// straight into the restore pipeline, so neither side ever materializes
// the whole live chain as wire bytes. A single-message offer is the
// degenerate stream {Chunk: 0, Last: true} — the original unchunked
// format with an offer header in front.
//
// The offer's Genesis marker is chunk 0's Marker: that is the value the
// receiver checks against its own resurrection floor before accepting
// anything (a snapshot anchored below the floor would resurrect blocks
// the receiver recorded as deleted, so it is rejected at chunk 0 and
// the rest of the stream is dropped unread).
type SnapshotPayload struct {
	// OfferID identifies the offer this chunk belongs to; the sender
	// picks a fresh value per offer so a receiver can discard stragglers
	// of an aborted stream.
	OfferID uint64
	// Chunk is this message's 0-based position in the offer. Chunks must
	// arrive in order (the transport preserves per-pair ordering); a gap
	// aborts the offer.
	Chunk uint32
	// Last marks the offer's final chunk; its Head is the offered head.
	Last bool
	// Marker is the number of Blocks[0]. On chunk 0 it is the sender's
	// Genesis marker; on later chunks it must be the previous chunk's
	// Head + 1.
	Marker uint64
	// Head is the number of Blocks[len(Blocks)-1].
	Head uint64
	// Blocks are canonical block encodings, ascending Marker..Head. At
	// most MaxSnapshotChunkBlocks per chunk.
	Blocks [][]byte
}

// EncodeSnapshot encodes one snapshot-offer chunk.
func EncodeSnapshot(p SnapshotPayload) []byte {
	e := codec.NewEncoder(256)
	e.Uint64(p.OfferID)
	e.Uint32(p.Chunk)
	e.Bool(p.Last)
	e.Uint64(p.Marker)
	e.Uint64(p.Head)
	e.Uint32(uint32(len(p.Blocks)))
	for _, b := range p.Blocks {
		e.Bytes(b)
	}
	return e.Data()
}

// DecodeSnapshot decodes one snapshot-offer chunk, checking the chunk's
// own invariants: a bounded, non-empty block run whose declared
// marker→head range matches the count (each block's number and linkage
// is authoritatively re-checked by the restore pipeline, and
// cross-chunk contiguity by the receiver's offer session).
func DecodeSnapshot(raw []byte) (SnapshotPayload, error) {
	d := codec.NewDecoder(raw)
	var p SnapshotPayload
	p.OfferID = d.Uint64()
	p.Chunk = d.Uint32()
	p.Last = d.Bool()
	p.Marker = d.Uint64()
	p.Head = d.Uint64()
	n := d.Uint32()
	if err := d.Err(); err != nil {
		return p, fmt.Errorf("wire: decode snapshot: %w", err)
	}
	if n == 0 {
		return p, errors.New("wire: snapshot chunk carries no blocks")
	}
	if n > MaxSnapshotChunkBlocks {
		return p, fmt.Errorf("wire: snapshot chunk too large: %d blocks", n)
	}
	// Views, as in DecodeSyncResp: the restore pipeline decodes each
	// block immediately and never retains the raw bytes.
	for i := uint32(0); i < n; i++ {
		p.Blocks = append(p.Blocks, d.View())
	}
	if err := d.Finish(); err != nil {
		return p, fmt.Errorf("wire: decode snapshot: %w", err)
	}
	if p.Head < p.Marker || uint64(len(p.Blocks)) != p.Head-p.Marker+1 {
		return p, fmt.Errorf("wire: snapshot chunk range %d..%d does not match %d blocks", p.Marker, p.Head, len(p.Blocks))
	}
	return p, nil
}

// SnapshotChunkFollows validates that next legally extends an offer
// whose most recently accepted chunk is prev: same offer, consecutive
// chunk index, contiguous block range, and prev not already final. The
// receiver's offer session applies this to every non-opening chunk; a
// violation aborts the whole offer (never a partial adoption).
func SnapshotChunkFollows(prev, next SnapshotPayload) error {
	if prev.Last {
		return errors.New("wire: snapshot chunk after final chunk")
	}
	if next.OfferID != prev.OfferID {
		return fmt.Errorf("wire: snapshot chunk from offer %d interleaved into offer %d", next.OfferID, prev.OfferID)
	}
	if next.Chunk != prev.Chunk+1 {
		return fmt.Errorf("wire: snapshot chunk %d out of order (want %d)", next.Chunk, prev.Chunk+1)
	}
	if next.Marker != prev.Head+1 {
		return fmt.Errorf("wire: snapshot chunk starts at %d, offer continues at %d", next.Marker, prev.Head+1)
	}
	return nil
}
