package manifest

import (
	"fmt"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/codec"
)

// CoSigner is one dependent-party approval carried into a tombstone,
// preserved verbatim from the deletion request entry (§IV-D.2).
type CoSigner struct {
	Name      string `json:"name"`
	Signature []byte `json:"sig"`
}

// Tombstone records the erasure of a single entry: what was deleted,
// who asked, and which co-signers approved. EntryDigest is the content
// hash of the erased entry, so an auditor holding the original bytes
// can still match them to the tombstone without the chain retaining
// anything recoverable.
type Tombstone struct {
	// Target is the erased entry's origin reference (α/e).
	Target block.Ref `json:"target"`
	// Requester is the identity that signed the deletion request.
	Requester string `json:"requester"`
	// RequestRef locates the deletion request entry that authorized
	// this erasure. The request block itself may since have been cut.
	RequestRef block.Ref `json:"request"`
	// MarkedAtBlock is the chain height at which the request was
	// admitted and the mark placed.
	MarkedAtBlock uint64 `json:"marked_at"`
	// EntryDigest is the content hash of the erased entry's canonical
	// encoding, or zero when the entry bytes were no longer reachable
	// at record time.
	EntryDigest codec.Hash `json:"entry_digest"`
	// CoSigners are the dependent-party approvals from the request.
	CoSigners []CoSigner `json:"cosigners,omitempty"`
}

// Record is one durable deletion record: the audit trail for a single
// executed truncation (marker shift) of the chain. The JSON tags are
// the HTTP view; the durable form is Encode.
type Record struct {
	// Seq is the manifest sequence number, assigned by Append,
	// strictly increasing within one log.
	Seq uint64 `json:"seq"`
	// OldMarker and NewMarker bound the deleted height range:
	// blocks with OldMarker <= number < NewMarker were cut.
	OldMarker uint64 `json:"old_marker"`
	NewMarker uint64 `json:"new_marker"`
	// SummaryBlock and SummaryHash identify the summary block Σ that
	// replaced the cut prefix; its carried set plus these tombstones
	// account for every entry of the deleted range.
	SummaryBlock uint64     `json:"summary_block"`
	SummaryHash  codec.Hash `json:"summary_hash"`
	// FirstCutHash and LastCutHash are the block digests bounding the
	// cut range (the former oldest live block and the last block below
	// the new marker), pinning exactly which chain section vanished.
	FirstCutHash codec.Hash `json:"first_cut_hash"`
	LastCutHash  codec.Hash `json:"last_cut_hash"`
	// Time is the chain's logical timestamp at execution.
	Time uint64 `json:"time"`
	// Tombstones lists the entries whose deletion marks were executed
	// by this truncation (deliberately dropped, not merely expired).
	Tombstones []Tombstone `json:"tombstones,omitempty"`
	// Hydrated marks records built from a marker block alone
	// (MarkerRecord): a marker adopted from a peer's status quo, or one
	// `seldel doctor` found no record for. Such a record knows the
	// height range, not the per-entry tombstones.
	Hydrated bool `json:"hydrated,omitempty"`
}

// MarkerRecord is the record of a marker shift from old to the marker
// block's number that only the marker block can describe: the block, "a
// trusted anchor … already approved by the anchor nodes" (§IV-C),
// stands in for the summary the cut's own record would name, and the
// per-entry tombstones are unknown, which Hydrated says.
func MarkerRecord(old uint64, marker *block.Block) Record {
	return Record{
		OldMarker:    old,
		NewMarker:    marker.Header.Number,
		SummaryBlock: marker.Header.Number,
		SummaryHash:  marker.Hash(),
		Time:         marker.Header.Time,
		Hydrated:     true,
	}
}

// FindTombstone returns the tombstone for ref, if this record holds one.
func (r *Record) FindTombstone(ref block.Ref) (Tombstone, bool) {
	for _, t := range r.Tombstones {
		if t.Target == ref {
			return t, true
		}
	}
	return Tombstone{}, false
}

// clone deep-copies a record so callers cannot alias log internals.
func (r Record) clone() Record {
	cp := r
	cp.Tombstones = make([]Tombstone, len(r.Tombstones))
	for i, t := range r.Tombstones {
		cp.Tombstones[i] = t
		cp.Tombstones[i].CoSigners = append([]CoSigner(nil), t.CoSigners...)
	}
	return cp
}

// Encode returns the record's canonical encoding: every field in
// declaration order, in internal/codec's fixed-width primitives. It is
// the body of a durable line (base64-wrapped) and the bytes a record's
// digest is taken over.
func (r *Record) Encode() []byte {
	size := codec.NewCounter()
	r.encodeTo(size)
	enc := codec.NewEncoder(size.Len())
	r.encodeTo(enc)
	return enc.Data()
}

func (r *Record) encodeTo(e *codec.Encoder) {
	e.Uint64(r.Seq)
	e.Uint64(r.OldMarker)
	e.Uint64(r.NewMarker)
	e.Uint64(r.SummaryBlock)
	e.Hash(r.SummaryHash)
	e.Hash(r.FirstCutHash)
	e.Hash(r.LastCutHash)
	e.Uint64(r.Time)
	e.Uint32(uint32(len(r.Tombstones)))
	for i := range r.Tombstones {
		t := &r.Tombstones[i]
		e.Uint64(t.Target.Block)
		e.Uint32(t.Target.Entry)
		e.String(t.Requester)
		e.Uint64(t.RequestRef.Block)
		e.Uint32(t.RequestRef.Entry)
		e.Uint64(t.MarkedAtBlock)
		e.Hash(t.EntryDigest)
		e.Uint32(uint32(len(t.CoSigners)))
		for _, cs := range t.CoSigners {
			e.String(cs.Name)
			e.Bytes(cs.Signature)
		}
	}
	e.Bool(r.Hydrated)
}

// The fewest bytes a tombstone (empty requester, no co-signers) and a
// co-signer (empty name and signature) encode to: a decoded count times
// its element's floor must fit in the bytes left before the decoder
// allocates for it.
const (
	minTombstoneLen = 2*(8+4) + 4 + 8 + codec.HashSize + 4
	minCoSignerLen  = 4 + 4
)

// decodeRecord parses a canonical record encoding. Everything it
// returns is copied out of data.
func decodeRecord(data []byte) (Record, error) {
	d := codec.NewDecoder(data)
	var r Record
	r.Seq = d.Uint64()
	r.OldMarker = d.Uint64()
	r.NewMarker = d.Uint64()
	r.SummaryBlock = d.Uint64()
	r.SummaryHash = d.Hash()
	r.FirstCutHash = d.Hash()
	r.LastCutHash = d.Hash()
	r.Time = d.Uint64()
	n, err := readCount(d, minTombstoneLen)
	if err != nil {
		return Record{}, err
	}
	if n > 0 {
		r.Tombstones = make([]Tombstone, n)
	}
	for i := range r.Tombstones {
		t := &r.Tombstones[i]
		t.Target.Block = d.Uint64()
		t.Target.Entry = d.Uint32()
		t.Requester = d.ReadString()
		t.RequestRef.Block = d.Uint64()
		t.RequestRef.Entry = d.Uint32()
		t.MarkedAtBlock = d.Uint64()
		t.EntryDigest = d.Hash()
		n, err := readCount(d, minCoSignerLen)
		if err != nil {
			return Record{}, err
		}
		if n > 0 {
			t.CoSigners = make([]CoSigner, n)
		}
		for j := range t.CoSigners {
			t.CoSigners[j].Name = d.ReadString()
			t.CoSigners[j].Signature = d.Bytes()
		}
	}
	r.Hydrated = d.Bool()
	return r, d.Finish()
}

// readCount reads an element count and refuses it unless that many
// elements of at least size bytes each fit in what d has left.
func readCount(d *codec.Decoder, size int) (int, error) {
	n := d.Uint32()
	if err := d.Err(); err != nil {
		return 0, err
	}
	if uint64(n)*uint64(size) > uint64(d.Remaining()) {
		return 0, fmt.Errorf("count %d of %d+ bytes each exceeds the %d bytes left", n, size, d.Remaining())
	}
	return int(n), nil
}
