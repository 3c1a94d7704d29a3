// Package block defines the block structures of the selective-deletion
// blockchain: ordinary blocks, and the summary blocks Σ introduced by the
// paper (§IV-B) whose data part carries earlier entries with their
// original block number, timestamp, and entry number (Fig. 4).
package block

import (
	"errors"
	"fmt"
	"sync"

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
}

// Errors returned by block validation.
var (
	ErrBadBlock     = errors.New("block: malformed block")
	ErrRootMismatch = errors.New("block: entries root mismatch")
)

// rootThreshold is the entry count below which fanning commitment
// building across a Runner costs more than it saves.
const rootThreshold = 32

// EntriesRoot computes the Merkle root over the canonical encodings of a
// normal block's entries.
func EntriesRoot(entries []*Entry) codec.Hash { return EntriesRootWith(nil, entries) }

// EntriesRootWith is EntriesRoot with the per-entry encoding and leaf
// hashing fanned out across r (nil runs serially). The root is
// identical to EntriesRoot's.
func EntriesRootWith(r merkle.Runner, entries []*Entry) codec.Hash {
	return merkle.BuildFromHashes(leafHashes(r, len(entries), func(i int, buf []byte) []byte {
		return entries[i].AppendEncode(buf)
	})).Root()
}

// leafHashes hashes n commitment leaves, fanned out across r when the
// list is long enough to pay for it. The leaf encodings exist only to be
// hashed: encode(i, buf) appends leaf i's canonical encoding to a pooled
// scratch buffer, so no per-leaf allocation survives the loop.
func leafHashes(r merkle.Runner, n int, encode func(i int, buf []byte) []byte) []codec.Hash {
	hashes := make([]codec.Hash, n)
	if r != nil && n >= rootThreshold {
		r.Each(n, func(i int) {
			bp := leafScratchPool.Get().(*[]byte)
			*bp = encode(i, (*bp)[:0])
			hashes[i] = merkle.HashLeaf(*bp)
			leafScratchPool.Put(bp)
		})
		return hashes
	}
	bp := leafScratchPool.Get().(*[]byte)
	for i := range hashes {
		*bp = encode(i, (*bp)[:0])
		hashes[i] = merkle.HashLeaf(*bp)
	}
	leafScratchPool.Put(bp)
	return hashes
}

// leafScratchPool holds encode buffers for commitment-root leaf
// hashing; one buffer per goroutine in the fanned-out path.
var leafScratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// CarriedRoot computes the Merkle root over the canonical encodings of a
// summary block's carried entries.
func CarriedRoot(carried []CarriedEntry) codec.Hash { return CarriedRootWith(nil, carried) }

// CarriedRootWith is CarriedRoot fanned out across r, like
// EntriesRootWith.
func CarriedRootWith(r merkle.Runner, carried []CarriedEntry) codec.Hash {
	return merkle.BuildFromHashes(leafHashes(r, len(carried), func(i int, buf []byte) []byte {
		return carried[i].AppendEncode(buf)
	})).Root()
}

// NewNormal assembles an unmined normal block on top of the given
// predecessor hash. The caller (consensus engine) seals it afterwards.
func NewNormal(number, time uint64, prevHash codec.Hash, entries []*Entry) *Block {
	return NewNormalWith(nil, number, time, prevHash, entries)
}

// NewNormalWith is NewNormal with the entries commitment built across
// r — the chain passes its verification pool so block assembly under
// load uses every core.
func NewNormalWith(r merkle.Runner, number, time uint64, prevHash codec.Hash, entries []*Entry) *Block {
	return &Block{
		Header: Header{
			Kind:        KindNormal,
			Number:      number,
			Time:        time,
			PrevHash:    prevHash,
			EntriesRoot: EntriesRootWith(r, entries),
		},
		Entries: entries,
	}
}

// NewSummary assembles a summary block Σ. Per §IV-B the summary block's
// timestamp equals the timestamp of the preceding block (prevTime), its
// content is fully deterministic, and it is never mined (zero nonce).
func NewSummary(number, prevTime uint64, prevHash codec.Hash, carried []CarriedEntry, seqRef *SequenceRef) *Block {
	return NewSummaryWith(nil, number, prevTime, prevHash, carried, seqRef)
}

// NewSummaryWith is NewSummary with the carried commitment built across
// r. The block is bit-identical to NewSummary's — parallelism never
// changes Σ, which the golden tests pin.
func NewSummaryWith(r merkle.Runner, number, prevTime uint64, prevHash codec.Hash, carried []CarriedEntry, seqRef *SequenceRef) *Block {
	b := &Block{
		Header: Header{
			Kind:        KindSummary,
			Number:      number,
			Time:        prevTime,
			PrevHash:    prevHash,
			EntriesRoot: CarriedRootWith(r, carried),
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

// Encode returns the full canonical block encoding (for gossip/storage).
func (b *Block) Encode() []byte {
	return b.AppendEncode(nil)
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

// DecodeBlock parses a canonical block encoding and verifies the header
// commitments. The nested structures are decoded through views into
// data — each inner decoder copies what it retains, so the returned
// block never aliases data and the input buffer may be pooled.
func DecodeBlock(data []byte) (*Block, error) {
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
	if err := b.CheckShape(); err != nil {
		return nil, err
	}
	return b, nil
}

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
// chain's LiveBytes accounting and the growth experiments (E4). It runs
// the encode pass itself over a counting encoder, so it equals
// len(Encode()) by construction and builds no buffer.
func (b *Block) EncodedSize() int {
	e := codec.NewCounter()
	b.encodeTo(e)
	return e.Len()
}

// EntryTree builds the Merkle tree behind Header.EntriesRoot: over the
// entries of a normal block, or the carried entries of a summary block.
// Callers that need several proofs of one block build it once.
func (b *Block) EntryTree() *merkle.Tree {
	if b.IsSummary() {
		return merkle.BuildFromHashes(leafHashes(nil, len(b.Carried), func(i int, buf []byte) []byte {
			return b.Carried[i].AppendEncode(buf)
		}))
	}
	return merkle.BuildFromHashes(leafHashes(nil, len(b.Entries), func(i int, buf []byte) []byte {
		return b.Entries[i].AppendEncode(buf)
	}))
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
