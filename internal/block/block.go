// Package block defines the block structures of the selective-deletion
// blockchain: ordinary blocks, and the summary blocks Σ introduced by the
// paper (§IV-B) whose data part carries earlier entries with their
// original block number, timestamp, and entry number (Fig. 4).
package block

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/merkle"
)

// BlockKind distinguishes ordinary blocks from summary blocks.
type BlockKind uint8

const (
	// KindNormal is an ordinary block holding freshly submitted entries.
	KindNormal BlockKind = iota + 1
	// KindSummary is a summary block Σ: deterministic content only,
	// carrying entries from merged sequences (§IV-B, §IV-C).
	KindSummary
)

// String returns "normal" or "summary".
func (k BlockKind) String() string {
	switch k {
	case KindNormal:
		return "normal"
	case KindSummary:
		return "summary"
	default:
		return fmt.Sprintf("blockkind(%d)", uint8(k))
	}
}

// Valid reports whether k is a defined block kind.
func (k BlockKind) Valid() bool { return k == KindNormal || k == KindSummary }

// GenesisPrevHash is the previous-hash sentinel of the very first block.
// Its five-character short form is "DEADB", matching the Genesis Block
// shown in the paper's console output (Fig. 6).
var GenesisPrevHash = codec.Hash{0xDE, 0xAD, 0xBE}

// Header is the block header. The block hash is the hash of the canonical
// header encoding; the header commits to the body through EntriesRoot and
// SeqRefHash.
type Header struct {
	// Kind distinguishes normal from summary blocks.
	Kind BlockKind
	// Number is the block number α.
	Number uint64
	// Time is the logical timestamp τ. A summary block reuses the
	// timestamp of the block before it (§IV-B) so every node derives an
	// identical header.
	Time uint64
	// PrevHash links to the previous block (GenesisPrevHash for block 0).
	PrevHash codec.Hash
	// EntriesRoot is the Merkle root over the block's entries (normal
	// blocks) or carried entries (summary blocks).
	EntriesRoot codec.Hash
	// SeqRefHash commits to the redundancy sequence reference (Fig. 9);
	// zero when absent.
	SeqRefHash codec.Hash
	// Nonce is the consensus work field (used by proof-of-work; zero
	// under other engines and in summary blocks, which are computed, not
	// mined).
	Nonce uint64
}

// Encode returns the canonical header encoding.
func (h *Header) Encode() []byte {
	e := codec.NewEncoder(128)
	h.encodeTo(e)
	return e.Data()
}

// encodeTo appends the canonical header encoding to e.
func (h *Header) encodeTo(e *codec.Encoder) {
	e.String("seldel/header/v1")
	e.Byte(byte(h.Kind))
	e.Uint64(h.Number)
	e.Uint64(h.Time)
	e.Hash(h.PrevHash)
	e.Hash(h.EntriesRoot)
	e.Hash(h.SeqRefHash)
	e.Uint64(h.Nonce)
}

// Hash returns the block hash (hash of the canonical header encoding).
func (h *Header) Hash() codec.Hash { return codec.HashBytes(h.Encode()) }

// CarriedEntry is an entry copied into a summary block during
// summarization. Per Fig. 4, the original block number, timestamp, and
// entry number are preserved; nonce and previous hash of the origin block
// are dropped ("not needed anymore", §IV-C).
type CarriedEntry struct {
	// OriginBlock is the block number α the entry was first stored in.
	OriginBlock uint64
	// OriginTime is the timestamp τ of the origin block.
	OriginTime uint64
	// EntryNumber is the entry's index within its origin block.
	EntryNumber uint32
	// Entry is the original data entry, signature included.
	Entry *Entry
}

// Ref returns the stable (origin block, entry number) address.
func (c CarriedEntry) Ref() Ref {
	return Ref{Block: c.OriginBlock, Entry: c.EntryNumber}
}

// Encode returns the canonical encoding of the carried entry.
func (c CarriedEntry) Encode() []byte {
	e := codec.NewEncoder(64)
	c.encodeTo(e)
	return e.Data()
}

// AppendEncode appends the canonical carried-entry encoding to dst,
// reusing its capacity.
func (c CarriedEntry) AppendEncode(dst []byte) []byte {
	e := codec.NewEncoderBuf(dst)
	c.encodeTo(e)
	return e.Data()
}

// encodeTo appends the canonical carried-entry encoding to e.
func (c CarriedEntry) encodeTo(e *codec.Encoder) {
	e.Uint64(c.OriginBlock)
	e.Uint64(c.OriginTime)
	e.Uint32(c.EntryNumber)
	at := e.BeginNested()
	c.Entry.encodeTo(e)
	e.EndNested(at)
}

func decodeCarriedFrom(d *codec.Decoder) (CarriedEntry, error) {
	var c CarriedEntry
	c.OriginBlock = d.Uint64()
	c.OriginTime = d.Uint64()
	c.EntryNumber = d.Uint32()
	// A view suffices: DecodeEntry copies every field it retains.
	raw := d.View()
	if err := d.Err(); err != nil {
		return c, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	entry, err := DecodeEntry(raw)
	if err != nil {
		return c, err
	}
	c.Entry = entry
	return c, nil
}

// SequenceRef is the redundancy reference of Fig. 9: a summary block
// stores (at least) the Merkle root over the block hashes of a middle
// sequence ω_{lβ/2}, so every entry older than lβ/2 has ≥ lβ/2
// confirmations and a history rewrite must span at least that many blocks.
type SequenceRef struct {
	// FirstBlock and LastBlock delimit the referenced sequence.
	FirstBlock uint64
	LastBlock  uint64
	// Root is the Merkle root over the referenced blocks' hashes.
	Root codec.Hash
}

// Encode returns the canonical encoding.
func (s *SequenceRef) Encode() []byte {
	e := codec.NewEncoder(64)
	s.encodeTo(e)
	return e.Data()
}

// encodeTo appends the canonical sequence-reference encoding to e.
func (s *SequenceRef) encodeTo(e *codec.Encoder) {
	e.String("seldel/seqref/v1")
	e.Uint64(s.FirstBlock)
	e.Uint64(s.LastBlock)
	e.Hash(s.Root)
}

// Hash returns the commitment stored in Header.SeqRefHash.
func (s *SequenceRef) Hash() codec.Hash { return codec.HashBytes(s.Encode()) }

// Block is a full block: header plus body. Normal blocks hold Entries;
// summary blocks hold Carried entries and an optional SeqRef.
type Block struct {
	Header  Header
	Entries []*Entry
	Carried []CarriedEntry
	SeqRef  *SequenceRef
	// size memoizes EncodedSize; 0 until the block is first sized.
	size atomic.Int64
}

// Errors returned by block validation.
var (
	ErrBadBlock     = errors.New("block: malformed block")
	ErrRootMismatch = errors.New("block: entries root mismatch")
)

// EntriesRoot computes the Merkle root over the canonical encodings of a
// normal block's entries.
func EntriesRoot(entries []*Entry) codec.Hash { return merkle.RootFromHashes(entryLeaves(entries)) }

// entryLeaves hashes every entry's leaf, in order. The encodings exist
// only to be hashed, so each goes into one pooled scratch buffer and no
// per-leaf allocation survives the loop.
func entryLeaves(entries []*Entry) []codec.Hash {
	leaves := make([]codec.Hash, len(entries))
	bp := leafScratchPool.Get().(*[]byte)
	for i, e := range entries {
		*bp = e.AppendEncode((*bp)[:0])
		leaves[i] = merkle.HashLeaf(*bp)
	}
	leafScratchPool.Put(bp)
	return leaves
}

// leafScratchPool holds encode buffers for commitment-root leaf
// hashing.
var leafScratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// CarriedLeaf is the Merkle leaf of one carried entry: the hash of its
// canonical encoding. It is the one leaf function of summary blocks —
// CarriedRoot, EntryTree and the chain's planner, which hashes each
// entry once in its life and keeps the result, all hash through it.
func CarriedLeaf(c CarriedEntry) codec.Hash {
	bp := leafScratchPool.Get().(*[]byte)
	*bp = c.AppendEncode((*bp)[:0])
	h := merkle.HashLeaf(*bp)
	leafScratchPool.Put(bp)
	return h
}

// carriedLeaves hashes every carried entry's leaf, in order.
func carriedLeaves(carried []CarriedEntry) []codec.Hash {
	leaves := make([]codec.Hash, len(carried))
	for i := range carried {
		leaves[i] = CarriedLeaf(carried[i])
	}
	return leaves
}

// CarriedRoot computes the Merkle root over the canonical encodings of a
// summary block's carried entries.
func CarriedRoot(carried []CarriedEntry) codec.Hash {
	return merkle.RootFromHashes(carriedLeaves(carried))
}

// NewNormal assembles an unmined normal block on top of the given
// predecessor hash. The caller (consensus engine) seals it afterwards.
func NewNormal(number, time uint64, prevHash codec.Hash, entries []*Entry) *Block {
	return &Block{
		Header: Header{
			Kind:        KindNormal,
			Number:      number,
			Time:        time,
			PrevHash:    prevHash,
			EntriesRoot: EntriesRoot(entries),
		},
		Entries: entries,
	}
}

// NewSummary assembles a summary block Σ. Per §IV-B the summary block's
// timestamp equals the timestamp of the preceding block (prevTime), its
// content is fully deterministic, and it is never mined (zero nonce).
func NewSummary(number, prevTime uint64, prevHash codec.Hash, carried []CarriedEntry, seqRef *SequenceRef) *Block {
	return NewSummaryFromLeaves(number, prevTime, prevHash, carried, carriedLeaves(carried), seqRef)
}

// NewSummaryFromLeaves is NewSummary for a caller that already holds the
// carried entries' leaves: leaves[i] must be CarriedLeaf(carried[i]).
// The chain's planner builds Σ this way, hashing only the entries it
// carries for the first time. The block is bit-identical to
// NewSummary's, which the golden tests pin.
func NewSummaryFromLeaves(number, prevTime uint64, prevHash codec.Hash, carried []CarriedEntry, leaves []codec.Hash, seqRef *SequenceRef) *Block {
	b := &Block{
		Header: Header{
			Kind:        KindSummary,
			Number:      number,
			Time:        prevTime,
			PrevHash:    prevHash,
			EntriesRoot: merkle.RootFromHashes(leaves),
		},
		Carried: carried,
		SeqRef:  seqRef,
	}
	if seqRef != nil {
		b.Header.SeqRefHash = seqRef.Hash()
	}
	return b
}

// Hash returns the block hash.
func (b *Block) Hash() codec.Hash { return b.Header.Hash() }

// IsSummary reports whether the block is a summary block Σ.
func (b *Block) IsSummary() bool { return b.Header.Kind == KindSummary }

// CheckShape validates structural invariants: kind-consistent body, body
// committed by the header, and well-formed entries. Signature validation
// happens at the chain layer, where the identity registry lives.
func (b *Block) CheckShape() error {
	if !b.Header.Kind.Valid() {
		return fmt.Errorf("%w: kind %d", ErrBadBlock, b.Header.Kind)
	}
	switch b.Header.Kind {
	case KindNormal:
		if len(b.Carried) != 0 || b.SeqRef != nil {
			return fmt.Errorf("%w: normal block carries summary content", ErrBadBlock)
		}
		if got := EntriesRoot(b.Entries); got != b.Header.EntriesRoot {
			return fmt.Errorf("%w: header %s, body %s", ErrRootMismatch, b.Header.EntriesRoot, got)
		}
		if !b.Header.SeqRefHash.IsZero() {
			return fmt.Errorf("%w: normal block commits to a sequence reference", ErrBadBlock)
		}
		for i, e := range b.Entries {
			if err := e.CheckShape(); err != nil {
				return fmt.Errorf("entry %d: %w", i, err)
			}
		}
	case KindSummary:
		if len(b.Entries) != 0 {
			return fmt.Errorf("%w: summary block holds fresh entries", ErrBadBlock)
		}
		if b.Header.Nonce != 0 {
			return fmt.Errorf("%w: summary block has a nonce", ErrBadBlock)
		}
		if got := CarriedRoot(b.Carried); got != b.Header.EntriesRoot {
			return fmt.Errorf("%w: header %s, carried %s", ErrRootMismatch, b.Header.EntriesRoot, got)
		}
		switch {
		case b.SeqRef == nil && !b.Header.SeqRefHash.IsZero():
			return fmt.Errorf("%w: header commits to a missing sequence reference", ErrBadBlock)
		case b.SeqRef != nil && b.Header.SeqRefHash != b.SeqRef.Hash():
			return fmt.Errorf("%w: sequence reference hash mismatch", ErrBadBlock)
		}
		for i, c := range b.Carried {
			if c.Entry == nil {
				return fmt.Errorf("%w: carried %d is nil", ErrBadBlock, i)
			}
			if err := c.Entry.CheckShape(); err != nil {
				return fmt.Errorf("carried %d (%s): %w", i, c.Ref(), err)
			}
			if c.Entry.Kind == KindDeletion {
				// §IV-D.3: deletion requests are never copied forward.
				return fmt.Errorf("%w: carried %d is a deletion entry", ErrBadBlock, i)
			}
		}
	}
	return nil
}

// Encode returns the full canonical block encoding (for gossip/storage)
// in one allocation: the buffer is sized by EncodedSize before the
// encode, so a summary block's megabyte is never regrown on the way.
func (b *Block) Encode() []byte {
	return b.AppendEncode(make([]byte, 0, b.EncodedSize()))
}

// AppendEncode appends the full canonical block encoding to dst and
// returns the extended slice — the allocation-free form of Encode for
// callers that bring their own (typically pooled) buffer. The bytes are
// identical to Encode's: every nested structure is length-prefixed in
// place instead of encoded separately and copied in.
func (b *Block) AppendEncode(dst []byte) []byte {
	e := codec.NewEncoderBuf(dst)
	b.encodeTo(e)
	return e.Data()
}

// encodeTo appends the full canonical block encoding to e.
func (b *Block) encodeTo(e *codec.Encoder) {
	at := e.BeginNested()
	b.Header.encodeTo(e)
	e.EndNested(at)
	e.Uint32(uint32(len(b.Entries)))
	for _, en := range b.Entries {
		at := e.BeginNested()
		en.encodeTo(e)
		e.EndNested(at)
	}
	e.Uint32(uint32(len(b.Carried)))
	for _, c := range b.Carried {
		at := e.BeginNested()
		c.encodeTo(e)
		e.EndNested(at)
	}
	if b.SeqRef != nil {
		e.Bool(true)
		at := e.BeginNested()
		b.SeqRef.encodeTo(e)
		e.EndNested(at)
	} else {
		e.Bool(false)
	}
}

// Decode parses a canonical block encoding without checking its shape:
// the body is not re-committed against the header. Every consumer
// shape-checks each block it did not build itself (chain.Chain.AppendBlock,
// chain.Restorer.Add, and the restore behind chain.Open for a store's
// Stream), so each block pays for CheckShape once. The nested
// structures are decoded through views into data — each inner decoder
// copies what it retains, so the returned block never aliases data and
// the caller may reuse the input buffer (the segment store reads every
// block into its one record buffer). Entries and Carried are sized once
// from their count prefixes, capped by the input left (capFor).
func Decode(data []byte) (*Block, error) {
	d := codec.NewDecoder(data)
	rawHeader := d.View()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	h, err := decodeHeader(rawHeader)
	if err != nil {
		return nil, err
	}
	b := &Block{Header: h}
	nEntries := d.Uint32()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	if nEntries > maxSliceLen {
		return nil, fmt.Errorf("%w: %d entries", ErrDecode, nEntries)
	}
	if nEntries > 0 {
		b.Entries = make([]*Entry, 0, capFor(d, nEntries))
	}
	for i := uint32(0); i < nEntries; i++ {
		raw := d.View()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrDecode, err)
		}
		en, err := DecodeEntry(raw)
		if err != nil {
			return nil, err
		}
		b.Entries = append(b.Entries, en)
	}
	nCarried := d.Uint32()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	if nCarried > maxSliceLen {
		return nil, fmt.Errorf("%w: %d carried entries", ErrDecode, nCarried)
	}
	if nCarried > 0 {
		b.Carried = make([]CarriedEntry, 0, capFor(d, nCarried))
	}
	for i := uint32(0); i < nCarried; i++ {
		raw := d.View()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrDecode, err)
		}
		c, err := decodeCarriedFrom(codec.NewDecoder(raw))
		if err != nil {
			return nil, err
		}
		b.Carried = append(b.Carried, c)
	}
	if d.Bool() {
		raw := d.View()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrDecode, err)
		}
		ref, err := decodeSeqRef(raw)
		if err != nil {
			return nil, err
		}
		b.SeqRef = ref
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	return b, nil
}

// capFor is the capacity to presize a list whose count prefix claims n
// elements: n, capped at what the rest of d can hold. Every element is
// length-prefixed (4 bytes at least), so a lying count costs no more
// than the bytes that carry it.
func capFor(d *codec.Decoder, n uint32) int { return min(int(n), d.Remaining()/4) }

func decodeHeader(data []byte) (Header, error) {
	var h Header
	d := codec.NewDecoder(data)
	if domain := d.ReadString(); domain != "seldel/header/v1" {
		if d.Err() == nil {
			return h, fmt.Errorf("%w: bad header domain %q", ErrDecode, domain)
		}
		return h, fmt.Errorf("%w: %v", ErrDecode, d.Err())
	}
	h.Kind = BlockKind(d.Byte())
	h.Number = d.Uint64()
	h.Time = d.Uint64()
	h.PrevHash = d.Hash()
	h.EntriesRoot = d.Hash()
	h.SeqRefHash = d.Hash()
	h.Nonce = d.Uint64()
	if err := d.Finish(); err != nil {
		return h, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	if !h.Kind.Valid() {
		return h, fmt.Errorf("%w: kind %d", ErrDecode, h.Kind)
	}
	return h, nil
}

func decodeSeqRef(data []byte) (*SequenceRef, error) {
	d := codec.NewDecoder(data)
	if domain := d.ReadString(); domain != "seldel/seqref/v1" {
		if d.Err() == nil {
			return nil, fmt.Errorf("%w: bad seqref domain %q", ErrDecode, domain)
		}
		return nil, fmt.Errorf("%w: %v", ErrDecode, d.Err())
	}
	var s SequenceRef
	s.FirstBlock = d.Uint64()
	s.LastBlock = d.Uint64()
	s.Root = d.Hash()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	return &s, nil
}

// EncodedSize returns the byte size of the canonical encoding — the
// chain's LiveBytes accounting, the store's record sizing and the growth
// experiments (E4). It runs the encode pass itself over a counting
// encoder, so it equals len(Encode()) by construction and builds no
// buffer, and it runs once per block: the result is kept, so a summary
// block of a megabyte is counted once however many layers size it. A
// block is immutable once built (a Seal sets its nonce before anything
// sizes it).
func (b *Block) EncodedSize() int {
	if n := b.size.Load(); n > 0 {
		return int(n)
	}
	e := codec.NewCounter()
	b.encodeTo(e)
	b.size.Store(int64(e.Len()))
	return e.Len()
}

// EntryTree builds the Merkle tree behind Header.EntriesRoot: over the
// entries of a normal block, or the carried entries of a summary block.
// Callers that need several proofs of one block build it once.
func (b *Block) EntryTree() *merkle.Tree {
	if b.IsSummary() {
		return merkle.BuildFromHashes(carriedLeaves(b.Carried))
	}
	return merkle.BuildFromHashes(entryLeaves(b.Entries))
}

// EntryProof returns a Merkle inclusion proof for entry i of a normal
// block, or carried entry i of a summary block.
func (b *Block) EntryProof(i int) (merkle.Proof, error) {
	return b.EntryTree().Proof(i)
}

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	cp := &Block{Header: b.Header}
	cp.Entries = make([]*Entry, len(b.Entries))
	for i, e := range b.Entries {
		cp.Entries[i] = e.Clone()
	}
	cp.Carried = make([]CarriedEntry, len(b.Carried))
	for i, c := range b.Carried {
		cp.Carried[i] = CarriedEntry{
			OriginBlock: c.OriginBlock,
			OriginTime:  c.OriginTime,
			EntryNumber: c.EntryNumber,
			Entry:       c.Entry.Clone(),
		}
	}
	if b.SeqRef != nil {
		ref := *b.SeqRef
		cp.SeqRef = &ref
	}
	return cp
}

// DecodeHeaderBytes parses a canonical header encoding (used by clients
// verifying lookup responses).
func DecodeHeaderBytes(data []byte) (Header, error) {
	return decodeHeader(data)
}

// DecodeCarried parses a canonical carried-entry encoding.
func DecodeCarried(data []byte) (CarriedEntry, error) {
	d := codec.NewDecoder(data)
	c, err := decodeCarriedFrom(d)
	if err != nil {
		return c, err
	}
	if err := d.Finish(); err != nil {
		return c, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	return c, nil
}
