// Package simclock provides deterministic logical clocks.
//
// The paper's summary blocks reuse the timestamp of the preceding block so
// that every node can compute them independently (§IV-B); beyond that, the
// concept does not depend on wall-clock time. Using a logical clock makes
// every experiment in this repository reproducible bit-for-bit. A
// wall-clock adapter is provided for interactive demos.
package simclock

import (
	"sync"
	"time"
)

// Clock yields monotonically non-decreasing logical timestamps.
type Clock interface {
	// Tick advances the clock by one and returns the new timestamp.
	Tick() uint64
}

// Logical is a deterministic counter clock. The zero value starts at 0.
// It is safe for concurrent use.
type Logical struct {
	mu  sync.Mutex
	now uint64
}

// NewLogical returns a logical clock whose first Tick returns start+1.
func NewLogical(start uint64) *Logical {
	return &Logical{now: start}
}

// Now returns the current timestamp.
func (c *Logical) Now() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Tick advances the clock by one step.
func (c *Logical) Tick() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now++
	return c.now
}

// Set moves the clock to t if t is ahead of the current time, mirroring
// how nodes adopt the maximum timestamp they observe.
func (c *Logical) Set(t uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
}

// Wall adapts the system wall clock (Unix seconds) to the Clock interface.
// Tick returns the current wall time; the clock still never runs
// backwards even if the system time does.
type Wall struct {
	mu   sync.Mutex
	last uint64
}

// NewWall returns a wall-clock adapter.
func NewWall() *Wall { return &Wall{} }

// Tick returns the current wall time in Unix seconds.
func (c *Wall) Tick() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := uint64(time.Now().Unix())
	if t < c.last {
		t = c.last
	}
	c.last = t
	return t
}
