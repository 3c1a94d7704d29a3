package serve

import (
	"fmt"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/mempool"
)

// RefJSON is the wire form of a stable entry reference.
type RefJSON struct {
	Block uint64 `json:"block"`
	Entry uint32 `json:"entry"`
}

// Ref converts to the internal form.
func (r RefJSON) Ref() block.Ref { return block.Ref{Block: r.Block, Entry: r.Entry} }

func refJSON(r block.Ref) RefJSON { return RefJSON{Block: r.Block, Entry: r.Entry} }

// CoSignerJSON is one dependent-party approval on a deletion entry.
type CoSignerJSON struct {
	Name      string `json:"name"`
	Signature []byte `json:"signature"`
}

// EntryJSON is the wire form of a signed entry. Payload and signature
// bytes ride as base64 (encoding/json's []byte convention). The server
// never signs: SigningBytes are produced and signed client-side, and
// the chain's validation rejects anything whose signature does not
// verify against the registry.
type EntryJSON struct {
	// Kind is "data" or "delete".
	Kind string `json:"kind"`
	// Owner is the submitting participant (the requester, for
	// deletions).
	Owner string `json:"owner"`
	// Payload is the data record (data entries only).
	Payload []byte `json:"payload,omitempty"`
	// Signature is Owner's Ed25519 signature over the entry's canonical
	// signing bytes.
	Signature []byte `json:"signature"`
	// ExpireTime/ExpireBlock are the temporary-entry deadlines; 0
	// disables the respective one.
	ExpireTime  uint64 `json:"expire_time,omitempty"`
	ExpireBlock uint64 `json:"expire_block,omitempty"`
	// DependsOn lists semantic-cohesion dependencies.
	DependsOn []RefJSON `json:"depends_on,omitempty"`
	// Target is the entry to delete (deletion entries only).
	Target *RefJSON `json:"target,omitempty"`
	// CoSigners hold dependent-party approvals (deletion entries only).
	CoSigners []CoSignerJSON `json:"co_signers,omitempty"`
}

// Entry converts the wire form into a chain entry, enforcing the
// request-level caps; the chain's own validation (shape, signatures,
// authorization) still runs at sealing.
func (j *EntryJSON) Entry(maxPayload int) (*block.Entry, error) {
	e := &block.Entry{
		Owner:       j.Owner,
		Payload:     j.Payload,
		Signature:   j.Signature,
		ExpireTime:  j.ExpireTime,
		ExpireBlock: j.ExpireBlock,
	}
	switch j.Kind {
	case "data":
		e.Kind = block.KindData
	case "delete":
		e.Kind = block.KindDeletion
	default:
		return nil, fmt.Errorf("unknown entry kind %q", j.Kind)
	}
	if maxPayload > 0 && len(j.Payload) > maxPayload {
		return nil, fmt.Errorf("payload %d bytes exceeds limit %d", len(j.Payload), maxPayload)
	}
	if j.Target != nil {
		e.Target = j.Target.Ref()
	}
	for _, d := range j.DependsOn {
		e.DependsOn = append(e.DependsOn, d.Ref())
	}
	for _, cs := range j.CoSigners {
		e.CoSigners = append(e.CoSigners, block.CoSignature{Name: cs.Name, Signature: cs.Signature})
	}
	if err := e.CheckShape(); err != nil {
		return nil, err
	}
	return e, nil
}

// NewEntryJSON converts a signed entry into its wire form — what a
// client (the repo benchmark, examples, tests) puts in a SubmitRequest.
func NewEntryJSON(e *block.Entry) EntryJSON { return entryJSON(e) }

// entryJSON converts a live entry into its wire form (reads).
func entryJSON(e *block.Entry) EntryJSON {
	j := EntryJSON{
		Kind:        e.Kind.String(),
		Owner:       e.Owner,
		Payload:     e.Payload,
		Signature:   e.Signature,
		ExpireTime:  e.ExpireTime,
		ExpireBlock: e.ExpireBlock,
	}
	if e.Kind == block.KindDeletion {
		t := refJSON(e.Target)
		j.Target = &t
	}
	for _, d := range e.DependsOn {
		j.DependsOn = append(j.DependsOn, refJSON(d))
	}
	for _, cs := range e.CoSigners {
		j.CoSigners = append(j.CoSigners, CoSignerJSON{Name: cs.Name, Signature: cs.Signature})
	}
	return j
}

// SubmitRequest is the POST /v1/submit body.
type SubmitRequest struct {
	Entries []EntryJSON `json:"entries"`
}

// SealedJSON is one entry's seal result: its stable reference, the
// holding block, and — for deletion entries — the mark outcome.
type SealedJSON struct {
	Ref       RefJSON `json:"ref"`
	Block     uint64  `json:"block"`
	BlockHash string  `json:"block_hash"`
	Mark      string  `json:"mark,omitempty"`
	Error     string  `json:"error,omitempty"`
}

func sealedJSON(s mempool.Sealed) SealedJSON {
	out := SealedJSON{
		Ref:       refJSON(s.Ref),
		Block:     s.Block,
		BlockHash: s.BlockHash.Hex(),
	}
	if s.Mark != mempool.MarkNone {
		out.Mark = s.Mark.String()
	}
	return out
}

// SubmitResponse is the POST /v1/submit reply. Without ?wait=1 only
// Accepted is set (the entries are enqueued; receipts resolve in the
// background). With ?wait=1, Sealed carries one result per entry in
// submission order; entries that failed validation carry Error instead
// of a reference.
type SubmitResponse struct {
	Accepted int          `json:"accepted"`
	Sealed   []SealedJSON `json:"sealed,omitempty"`
}

// EntryPage is one GET /v1/entries page: entries with refs strictly
// above the request cursor, and the cursor to pass for the next page.
// Next is empty when the scan reached the head — no live entries
// remained beyond this page at snapshot time.
type EntryPage struct {
	Entries []EntryWithRef `json:"entries"`
	Next    string         `json:"next,omitempty"`
	// CutBlocks is the backend's cumulative truncation counter observed
	// for this page, so a paginating client can tell when a concurrent
	// truncation moved the live window under its scan (refs remain
	// stable either way).
	CutBlocks uint64 `json:"cut_blocks"`
}

// EntryWithRef pairs a live entry with its stable reference.
type EntryWithRef struct {
	Ref   RefJSON   `json:"ref"`
	Entry EntryJSON `json:"entry"`
}

// ErrorResponse is the JSON error body for non-2xx replies.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterSec mirrors the Retry-After header on 429 sheds.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}
