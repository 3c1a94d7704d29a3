package block

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/merkle"
)

func testEntries(t *testing.T, n int) []*Entry {
	t.Helper()
	kp := identity.Deterministic("alpha", "block-test")
	out := make([]*Entry, n)
	for i := range out {
		out[i] = NewData("alpha", []byte{byte(i), 'd'}).Sign(kp)
	}
	return out
}

func TestGenesisPrevHashShortForm(t *testing.T) {
	if got := GenesisPrevHash.Short(); got != "DEADB" {
		t.Errorf("GenesisPrevHash.Short = %q, want DEADB (paper Fig. 6)", got)
	}
}

func TestNewNormalBlock(t *testing.T) {
	entries := testEntries(t, 3)
	b := NewNormal(1, 10, GenesisPrevHash, entries)
	if err := b.CheckShape(); err != nil {
		t.Fatalf("CheckShape: %v", err)
	}
	if b.IsSummary() {
		t.Error("normal block reports IsSummary")
	}
	if b.Header.EntriesRoot != EntriesRoot(entries) {
		t.Error("EntriesRoot not set")
	}
}

func TestNewSummaryBlock(t *testing.T) {
	entries := testEntries(t, 2)
	carried := []CarriedEntry{
		{OriginBlock: 1, OriginTime: 10, EntryNumber: 0, Entry: entries[0]},
		{OriginBlock: 3, OriginTime: 12, EntryNumber: 1, Entry: entries[1]},
	}
	ref := &SequenceRef{FirstBlock: 4, LastBlock: 6, Root: codec.HashBytes([]byte("root"))}
	b := NewSummary(7, 13, codec.HashBytes([]byte("prev")), carried, ref)
	if err := b.CheckShape(); err != nil {
		t.Fatalf("CheckShape: %v", err)
	}
	if !b.IsSummary() {
		t.Error("summary block not IsSummary")
	}
	if b.Header.Time != 13 {
		t.Errorf("summary must reuse prev timestamp, got %d", b.Header.Time)
	}
	if b.Header.SeqRefHash != ref.Hash() {
		t.Error("SeqRefHash not committed")
	}
}

func TestSummaryDeterminism(t *testing.T) {
	// Two independent constructions from the same inputs must be
	// bit-identical (§IV-B).
	entries := testEntries(t, 2)
	mk := func() *Block {
		carried := []CarriedEntry{{OriginBlock: 1, OriginTime: 10, EntryNumber: 0, Entry: entries[0].Clone()}}
		return NewSummary(5, 11, codec.HashBytes([]byte("p")), carried, nil)
	}
	a, b := mk(), mk()
	if a.Hash() != b.Hash() {
		t.Error("summary construction not deterministic")
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Error("summary encoding not deterministic")
	}
}

func TestCheckShapeRejections(t *testing.T) {
	entries := testEntries(t, 2)
	kp := identity.Deterministic("alpha", "block-test")
	deletion := NewDeletion("alpha", Ref{Block: 1, Entry: 0}).Sign(kp)

	tests := []struct {
		name string
		blk  func() *Block
		want error
	}{
		{
			"normal with carried",
			func() *Block {
				b := NewNormal(1, 10, GenesisPrevHash, entries)
				b.Carried = []CarriedEntry{{Entry: entries[0]}}
				return b
			},
			ErrBadBlock,
		},
		{
			"normal root mismatch",
			func() *Block {
				b := NewNormal(1, 10, GenesisPrevHash, entries)
				b.Header.EntriesRoot = codec.HashBytes([]byte("wrong"))
				return b
			},
			ErrRootMismatch,
		},
		{
			"normal with seqref hash",
			func() *Block {
				b := NewNormal(1, 10, GenesisPrevHash, entries)
				b.Header.SeqRefHash = codec.HashBytes([]byte("x"))
				return b
			},
			ErrBadBlock,
		},
		{
			"summary with entries",
			func() *Block {
				b := NewSummary(2, 10, GenesisPrevHash, nil, nil)
				b.Entries = entries
				return b
			},
			ErrBadBlock,
		},
		{
			"summary with nonce",
			func() *Block {
				b := NewSummary(2, 10, GenesisPrevHash, nil, nil)
				b.Header.Nonce = 7
				return b
			},
			ErrBadBlock,
		},
		{
			"summary carrying deletion entry",
			func() *Block {
				c := []CarriedEntry{{OriginBlock: 1, EntryNumber: 0, Entry: deletion}}
				return NewSummary(2, 10, GenesisPrevHash, c, nil)
			},
			ErrBadBlock,
		},
		{
			"summary carried root mismatch",
			func() *Block {
				c := []CarriedEntry{{OriginBlock: 1, EntryNumber: 0, Entry: entries[0]}}
				b := NewSummary(2, 10, GenesisPrevHash, c, nil)
				b.Carried[0].OriginTime = 99 // mutate after root computed
				return b
			},
			ErrRootMismatch,
		},
		{
			"summary seqref hash mismatch",
			func() *Block {
				ref := &SequenceRef{FirstBlock: 1, LastBlock: 2, Root: codec.HashBytes([]byte("r"))}
				b := NewSummary(2, 10, GenesisPrevHash, nil, ref)
				b.SeqRef.LastBlock = 3 // breaks the committed hash
				return b
			},
			ErrBadBlock,
		},
		{
			"summary header commits to missing ref",
			func() *Block {
				ref := &SequenceRef{FirstBlock: 1, LastBlock: 2, Root: codec.HashBytes([]byte("r"))}
				b := NewSummary(2, 10, GenesisPrevHash, nil, ref)
				b.SeqRef = nil
				return b
			},
			ErrBadBlock,
		},
		{
			"bad block kind",
			func() *Block {
				b := NewNormal(1, 10, GenesisPrevHash, entries)
				b.Header.Kind = BlockKind(9)
				return b
			},
			ErrBadBlock,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.blk().CheckShape(); !errors.Is(err, tt.want) {
				t.Errorf("CheckShape = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestBlockEncodeRoundTrip(t *testing.T) {
	entries := testEntries(t, 3)
	normal := NewNormal(1, 10, GenesisPrevHash, entries)
	carried := []CarriedEntry{
		{OriginBlock: 1, OriginTime: 10, EntryNumber: 0, Entry: entries[0]},
	}
	ref := &SequenceRef{FirstBlock: 2, LastBlock: 4, Root: codec.HashBytes([]byte("seq"))}
	summary := NewSummary(5, 12, normal.Hash(), carried, ref)
	emptySummary := NewSummary(2, 10, normal.Hash(), nil, nil)

	for i, b := range []*Block{normal, summary, emptySummary} {
		back, err := decodeChecked(b.Encode())
		if err != nil {
			t.Fatalf("block %d: Decode+CheckShape: %v", i, err)
		}
		if back.Hash() != b.Hash() {
			t.Errorf("block %d: hash changed after round trip", i)
		}
		if !bytes.Equal(back.Encode(), b.Encode()) {
			t.Errorf("block %d: encoding changed after round trip", i)
		}
	}
}

func TestDecodeBlockRejectsCorruption(t *testing.T) {
	entries := testEntries(t, 2)
	b := NewNormal(1, 10, GenesisPrevHash, entries)
	enc := b.Encode()

	if _, err := decodeChecked(nil); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := decodeChecked(enc[:len(enc)/2]); err == nil {
		t.Error("truncated block accepted")
	}
	trailing := append(append([]byte(nil), enc...), 0xAA)
	if _, err := decodeChecked(trailing); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Flip a byte inside an entry payload: the root check must catch it.
	corrupt := append([]byte(nil), enc...)
	corrupt[len(corrupt)-10] ^= 0xFF
	if _, err := decodeChecked(corrupt); !errors.Is(err, ErrRootMismatch) {
		t.Errorf("corrupted body: Decode+CheckShape = %v, want ErrRootMismatch", err)
	}
	// Decode only parses: the root check is left to CheckShape.
	parsed, err := Decode(corrupt)
	if err != nil {
		t.Fatalf("Decode of a well-formed encoding: %v", err)
	}
	if err := parsed.CheckShape(); !errors.Is(err, ErrRootMismatch) {
		t.Errorf("CheckShape after Decode = %v, want ErrRootMismatch", err)
	}
}

func TestHeaderHashBindsAllFields(t *testing.T) {
	base := func() Header {
		return Header{
			Kind: KindNormal, Number: 4, Time: 9,
			PrevHash:    codec.HashBytes([]byte("p")),
			EntriesRoot: codec.HashBytes([]byte("e")),
			SeqRefHash:  codec.HashBytes([]byte("s")),
			Nonce:       7,
		}
	}
	bh := base()
	ref := bh.Hash()
	mutations := map[string]func(*Header){
		"kind":   func(h *Header) { h.Kind = KindSummary },
		"number": func(h *Header) { h.Number++ },
		"time":   func(h *Header) { h.Time++ },
		"prev":   func(h *Header) { h.PrevHash[0] ^= 1 },
		"root":   func(h *Header) { h.EntriesRoot[0] ^= 1 },
		"seqref": func(h *Header) { h.SeqRefHash[0] ^= 1 },
		"nonce":  func(h *Header) { h.Nonce++ },
	}
	for name, mutate := range mutations {
		h := base()
		mutate(&h)
		if h.Hash() == ref {
			t.Errorf("mutation %q not reflected in header hash", name)
		}
	}
}

func TestEntryProof(t *testing.T) {
	entries := testEntries(t, 5)
	b := NewNormal(1, 10, GenesisPrevHash, entries)
	for i, e := range entries {
		p, err := b.EntryProof(i)
		if err != nil {
			t.Fatalf("EntryProof(%d): %v", i, err)
		}
		if !merkle.Verify(b.Header.EntriesRoot, e.Encode(), p) {
			t.Errorf("proof for entry %d rejected", i)
		}
	}
	carried := []CarriedEntry{
		{OriginBlock: 1, OriginTime: 10, EntryNumber: 0, Entry: entries[0]},
		{OriginBlock: 1, OriginTime: 10, EntryNumber: 1, Entry: entries[1]},
	}
	s := NewSummary(6, 12, b.Hash(), carried, nil)
	p, err := s.EntryProof(1)
	if err != nil {
		t.Fatal(err)
	}
	if !merkle.Verify(s.Header.EntriesRoot, carried[1].Encode(), p) {
		t.Error("carried-entry proof rejected")
	}
}

func TestBlockCloneIsDeep(t *testing.T) {
	entries := testEntries(t, 2)
	ref := &SequenceRef{FirstBlock: 1, LastBlock: 2, Root: codec.HashBytes([]byte("r"))}
	carried := []CarriedEntry{{OriginBlock: 1, OriginTime: 1, EntryNumber: 0, Entry: entries[0]}}
	b := NewSummary(3, 5, GenesisPrevHash, carried, ref)
	cp := b.Clone()
	cp.Carried[0].Entry.Payload[0] = 'Z'
	cp.SeqRef.FirstBlock = 99
	if b.Carried[0].Entry.Payload[0] == 'Z' {
		t.Error("Clone shares carried entries")
	}
	if b.SeqRef.FirstBlock == 99 {
		t.Error("Clone shares SeqRef")
	}
}

func TestCarriedEntryRef(t *testing.T) {
	c := CarriedEntry{OriginBlock: 3, EntryNumber: 1}
	if c.Ref() != (Ref{Block: 3, Entry: 1}) {
		t.Errorf("Ref = %v", c.Ref())
	}
}

// TestEncodedSizeIsEncodeLength pins the counting pass to the encoding
// it sizes, over every field a block can carry, and that it builds no
// buffer: the chain calls it under its lock for every block pushed or cut.
func TestEncodedSizeIsEncodeLength(t *testing.T) {
	kp := identity.Deterministic("alpha", "block-test")
	entries := testEntries(t, 10)
	dependent := NewData("alpha", []byte("dep"))
	dependent.DependsOn = []Ref{{Block: 1, Entry: 0}, {Block: 1, Entry: 1}}
	dependent.Sign(kp)
	mixed := append([]*Entry{
		dependent,
		NewTemporary("alpha", []byte("tmp"), 40, 9).Sign(kp),
		NewDeletion("alpha", Ref{Block: 1, Entry: 1}).Sign(kp).AddCoSignature(kp).AddCoSignature(kp),
	}, entries...)
	normal := NewNormal(1, 10, GenesisPrevHash, mixed)
	carried := make([]CarriedEntry, len(entries))
	for i, e := range entries {
		carried[i] = CarriedEntry{OriginBlock: 1, OriginTime: 10, EntryNumber: uint32(i), Entry: e}
	}
	ref := &SequenceRef{FirstBlock: 2, LastBlock: 4, Root: codec.HashBytes([]byte("seq"))}
	for name, b := range map[string]*Block{
		"genesis":       NewNormal(0, 1, GenesisPrevHash, nil),
		"normal":        normal,
		"summary":       NewSummary(5, 12, normal.Hash(), carried, ref),
		"empty summary": NewSummary(2, 10, normal.Hash(), nil, nil),
	} {
		if got, want := b.EncodedSize(), len(b.Encode()); got != want {
			t.Errorf("%s: EncodedSize %d, len(Encode()) %d", name, got, want)
		}
		if allocs := testing.AllocsPerRun(20, func() { _ = b.EncodedSize() }); allocs != 0 {
			t.Errorf("%s: EncodedSize allocates %v times per call", name, allocs)
		}
	}
}

// TestBlockEncodeAllocatesOnce pins Encode to one allocation for a
// summary block the size of the read workload's (3 600 carried entries,
// ~1 MB): the buffer is sized before the encode instead of regrown
// through it. Gossip, sync replies and the in-memory store all encode
// whole blocks this way.
func TestBlockEncodeAllocatesOnce(t *testing.T) {
	kp := identity.Deterministic("alpha", "block-test")
	e := NewData("alpha", bytes.Repeat([]byte{'p'}, 256)).Sign(kp)
	carried := make([]CarriedEntry, 3600)
	for i := range carried {
		carried[i] = CarriedEntry{OriginBlock: uint64(i / 8), OriginTime: uint64(i / 8), EntryNumber: uint32(i % 8), Entry: e}
	}
	sigma := NewSummary(3607, 3600, GenesisPrevHash, carried, nil)
	if allocs := testing.AllocsPerRun(50, func() { _ = sigma.Encode() }); allocs != 1 {
		t.Fatalf("Encode of a %d-byte summary allocates %v times, want 1", sigma.EncodedSize(), allocs)
	}
	if got := len(sigma.Encode()); got != sigma.EncodedSize() {
		t.Fatalf("len(Encode()) %d, EncodedSize %d", got, sigma.EncodedSize())
	}
}

// TestDecodeHostileCountAllocatesNoCount checks that Decode presizes its
// lists from what the input can hold, not from what a count prefix
// claims: a summary of three carried entries whose count is patched to
// 2^20 (the largest count the decoder admits, 32 MiB of CarriedEntry)
// is rejected having allocated a few kilobytes.
func TestDecodeHostileCountAllocatesNoCount(t *testing.T) {
	kp := identity.Deterministic("alpha", "block-test")
	carried := make([]CarriedEntry, 3)
	for i := range carried {
		carried[i] = CarriedEntry{OriginBlock: 1, OriginTime: 1, EntryNumber: uint32(i), Entry: NewData("alpha", []byte("c")).Sign(kp)}
	}
	sigma := NewSummary(4, 3, GenesisPrevHash, carried, nil)
	raw := sigma.Encode()
	// Layout: header (length-prefixed), entry count, carried count.
	at := 4 + len(sigma.Header.Encode()) + 4
	if got := binary.BigEndian.Uint32(raw[at:]); got != uint32(len(carried)) {
		t.Fatalf("carried count at offset %d reads %d, want %d", at, got, len(carried))
	}
	binary.BigEndian.PutUint32(raw[at:], maxSliceLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(raw)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrDecode) {
		t.Fatalf("Decode of a %d-byte block claiming %d carried entries: %v, want ErrDecode", len(raw), maxSliceLen, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("rejecting a %d-byte block allocated %d bytes", len(raw), got)
	}
}

func TestBlockKindString(t *testing.T) {
	if KindNormal.String() != "normal" || KindSummary.String() != "summary" {
		t.Error("block kind strings wrong")
	}
	if BlockKind(9).Valid() {
		t.Error("invalid kind reported valid")
	}
}

// TestQuickDecodeBlockNeverPanics feeds arbitrary bytes into the block
// decoder: it must reject or accept, never panic or hang.
func TestQuickDecodeBlockNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		_, _ = decodeChecked(data)
		_, _ = DecodeEntry(data)
		_, _ = DecodeHeaderBytes(data)
		_, _ = DecodeCarried(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickDecodeMutatedBlock flips bytes in valid encodings: decoding
// must never panic, and any accepted result must re-encode consistently.
func TestQuickDecodeMutatedBlock(t *testing.T) {
	entries := testEntries(t, 3)
	base := NewNormal(1, 10, GenesisPrevHash, entries).Encode()
	f := func(pos uint16, flip byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		mutated := append([]byte(nil), base...)
		mutated[int(pos)%len(mutated)] ^= flip
		b, err := decodeChecked(mutated)
		if err != nil {
			return true // rejected: fine
		}
		// Accepted (flip==0 or a benign bit): must round-trip.
		return bytes.Equal(b.Encode(), mutated)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// decodeChecked is what every consumer of a received block runs: Decode,
// then CheckShape (AppendBlock, Restorer.Add).
func decodeChecked(data []byte) (*Block, error) {
	b, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if err := b.CheckShape(); err != nil {
		return nil, err
	}
	return b, nil
}
