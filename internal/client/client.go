// Package client implements blockchain clients: participants that build
// signed entries and deletion requests and query the chain through the
// anchor nodes. Clients are verifying readers; a write reaches the chain
// through one anchor's Node.Submit (or POST /v1/submit on a serving
// node), so one anchor seals it and the others receive it in the block.
//
// Clients do not hold the chain. They obtain "the current status quo of
// the blockchain" from the anchor nodes (§V-B.4) and guard against node
// isolation (eclipse attacks) by querying several anchors and accepting
// the majority answer. Entry lookups return Merkle inclusion proofs that
// the client verifies against the reported block header.
package client

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/merkle"
	"github.com/seldel/seldel/internal/netsim"
	"github.com/seldel/seldel/internal/verify"
	"github.com/seldel/seldel/internal/wire"
)

// Errors returned by the client.
var (
	ErrTimeout    = errors.New("client: request timed out")
	ErrNoMajority = errors.New("client: anchors disagree (no majority status)")
	ErrBadProof   = errors.New("client: inclusion proof rejected")
	ErrNotFound   = errors.New("client: entry not found")
)

// Status is the majority view of the chain's current state.
type Status struct {
	HeadNumber uint64
	HeadHash   codec.Hash
	Marker     uint64
	// Agreeing is the number of anchors that reported this status.
	Agreeing int
	// Queried is the number of anchors asked.
	Queried int
}

// Client is a lightweight participant.
type Client struct {
	mu      sync.Mutex
	key     *identity.KeyPair
	ep      *netsim.Endpoint
	anchors []string
	reg     *identity.Registry
	nextReq uint64
	status  map[uint64]chan wire.StatusPayload
	lookups map[uint64]chan wire.LookupRespPayload
	timeout time.Duration
}

// New joins a client to the network. The registry is used to verify
// anchor responses; anchors lists the anchor-node names to query.
func New(key *identity.KeyPair, reg *identity.Registry, net *netsim.Network, anchors []string) (*Client, error) {
	c := &Client{
		key:     key,
		reg:     reg,
		anchors: append([]string(nil), anchors...),
		status:  make(map[uint64]chan wire.StatusPayload),
		lookups: make(map[uint64]chan wire.LookupRespPayload),
		timeout: 2 * time.Second,
	}
	ep, err := net.Join(key.Name(), c.handle)
	if err != nil {
		return nil, err
	}
	c.ep = ep
	return c, nil
}

// Name returns the client's participant name.
func (c *Client) Name() string { return c.key.Name() }

// SetTimeout adjusts the per-request timeout (tests shorten it).
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

func (c *Client) handle(msg netsim.Message) {
	env, err := wire.OpenEnvelope(verify.Shared(), c.reg, msg.Payload)
	if err != nil {
		return
	}
	switch env.Kind {
	case wire.KindStatusResp:
		s, err := wire.DecodeStatus(env.Body)
		if err != nil {
			return
		}
		c.mu.Lock()
		ch := c.status[s.ReqID]
		c.mu.Unlock()
		if ch != nil {
			select {
			case ch <- s:
			default:
			}
		}
	case wire.KindLookupResp:
		r, err := wire.DecodeLookupResp(env.Body)
		if err != nil {
			return
		}
		c.mu.Lock()
		ch := c.lookups[r.ReqID]
		c.mu.Unlock()
		if ch != nil {
			select {
			case ch <- r:
			default:
			}
		}
	}
}

// NewDataEntry builds and signs a data entry owned by this client.
func (c *Client) NewDataEntry(payload []byte) *block.Entry {
	return block.NewData(c.Name(), payload).Sign(c.key)
}

// NewTemporaryEntry builds and signs a temporary entry (§IV-D.4).
func (c *Client) NewTemporaryEntry(payload []byte, expireTime, expireBlock uint64) *block.Entry {
	return block.NewTemporary(c.Name(), payload, expireTime, expireBlock).Sign(c.key)
}

// NewDeletionRequest builds and signs a deletion request (§IV-D).
func (c *Client) NewDeletionRequest(target block.Ref) *block.Entry {
	return block.NewDeletion(c.Name(), target).Sign(c.key)
}

// QueryStatus asks all anchors for the current status quo and returns
// the majority answer (anti-eclipse, §V-B.4). Anchors reporting
// themselves forked are ignored.
func (c *Client) QueryStatus() (Status, error) {
	reqID, ch := c.newStatusWaiter()
	defer c.dropStatusWaiter(reqID)
	body := codec.NewEncoder(8)
	body.Uint64(reqID)
	for _, anchor := range c.anchors {
		_ = c.ep.Send(anchor, wire.KindStatusReq, wire.SealEnvelope(c.key, wire.KindStatusReq, body.Data()))
	}
	deadline := time.After(c.timeoutDur())
	type key struct {
		num    uint64
		hash   codec.Hash
		marker uint64
	}
	counts := make(map[key]int)
	got := 0
	for got < len(c.anchors) {
		select {
		case s := <-ch:
			got++
			if s.Forked {
				continue
			}
			counts[key{s.HeadNumber, s.HeadHash, s.Marker}]++
		case <-deadline:
			got = len(c.anchors) // stop waiting
		}
	}
	if len(counts) == 0 {
		return Status{}, ErrTimeout
	}
	best, bestCount := key{}, 0
	for k, n := range counts {
		if n > bestCount {
			best, bestCount = k, n
		}
	}
	if bestCount <= len(c.anchors)/2 {
		return Status{}, fmt.Errorf("%w: best %d of %d", ErrNoMajority, bestCount, len(c.anchors))
	}
	return Status{
		HeadNumber: best.num,
		HeadHash:   best.hash,
		Marker:     best.marker,
		Agreeing:   bestCount,
		Queried:    len(c.anchors),
	}, nil
}

func (c *Client) timeoutDur() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timeout
}

func (c *Client) newStatusWaiter() (uint64, chan wire.StatusPayload) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextReq++
	id := c.nextReq
	ch := make(chan wire.StatusPayload, 16)
	c.status[id] = ch
	return id, ch
}

func (c *Client) dropStatusWaiter(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.status, id)
}

// VerifiedEntry is a lookup result whose inclusion proof checked out.
type VerifiedEntry struct {
	Entry *block.Entry
	// Holder is the header of the block currently containing the entry.
	Holder block.Header
	// Carried reports whether the entry lives inside a summary block.
	Carried bool
}

// Lookup resolves ref via the given anchor and verifies the returned
// Merkle inclusion proof against the holding block's header. For full
// anti-eclipse protection, callers cross-check Holder against a majority
// QueryStatus (the holder is the head summary block in the common case).
func (c *Client) Lookup(anchor string, ref block.Ref) (*VerifiedEntry, error) {
	reqID, ch := c.newLookupWaiter()
	defer c.dropLookupWaiter(reqID)
	body := wire.EncodeLookupReq(wire.LookupReqPayload{ReqID: reqID, RefBlock: ref.Block, RefEntry: ref.Entry})
	if err := c.ep.Send(anchor, wire.KindLookupReq, wire.SealEnvelope(c.key, wire.KindLookupReq, body)); err != nil {
		return nil, err
	}
	select {
	case resp := <-ch:
		return c.verifyLookup(resp)
	case <-time.After(c.timeoutDur()):
		return nil, ErrTimeout
	}
}

func (c *Client) newLookupWaiter() (uint64, chan wire.LookupRespPayload) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextReq++
	id := c.nextReq
	ch := make(chan wire.LookupRespPayload, 4)
	c.lookups[id] = ch
	return id, ch
}

func (c *Client) dropLookupWaiter(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.lookups, id)
}

func (c *Client) verifyLookup(resp wire.LookupRespPayload) (*VerifiedEntry, error) {
	if !resp.Found {
		return nil, ErrNotFound
	}
	entry, err := block.DecodeEntry(resp.Entry)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	header, err := block.DecodeHeaderBytes(resp.HolderBlock)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	proof := merkle.Proof{
		Index:     int(resp.LeafIndex),
		LeafCount: int(resp.LeafCount),
	}
	for _, raw := range resp.ProofSibs {
		if len(raw) != codec.HashSize {
			return nil, fmt.Errorf("%w: sibling size %d", ErrBadProof, len(raw))
		}
		var h codec.Hash
		copy(h[:], raw)
		proof.Siblings = append(proof.Siblings, h)
	}
	if !merkle.Verify(header.EntriesRoot, resp.LeafBytes, proof) {
		return nil, ErrBadProof
	}
	// The proven leaf must actually contain the returned entry.
	if resp.Carried {
		d, err := block.DecodeCarried(resp.LeafBytes)
		if err != nil || d.Entry.Hash() != entry.Hash() {
			return nil, ErrBadProof
		}
	} else if codec.HashBytes(resp.LeafBytes) != codec.HashBytes(resp.Entry) {
		return nil, ErrBadProof
	}
	return &VerifiedEntry{Entry: entry, Holder: header, Carried: resp.Carried}, nil
}

// Anchors returns the anchor set, sorted.
func (c *Client) Anchors() []string {
	out := append([]string(nil), c.anchors...)
	sort.Strings(out)
	return out
}
