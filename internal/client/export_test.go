package client

import (
	"sort"
	"time"

	"github.com/seldel/seldel/internal/block"
)

// Test-only helpers of this directory's tests.

// SetTimeout shortens the per-request timeout.
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// Name returns the client's participant name.
func (c *Client) Name() string { return c.key.Name() }

// Anchors returns the anchor set, sorted.
func (c *Client) Anchors() []string {
	out := append([]string(nil), c.anchors...)
	sort.Strings(out)
	return out
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
