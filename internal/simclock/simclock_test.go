package simclock

import (
	"sync"
	"testing"
)

func TestLogicalBasics(t *testing.T) {
	c := NewLogical(10)
	if got := c.Now(); got != 10 {
		t.Errorf("Now = %d, want 10", got)
	}
	if got := c.Tick(); got != 11 {
		t.Errorf("Tick = %d, want 11", got)
	}
	c.Set(16)
	c.Set(14) // behind: ignored
	if got := c.Now(); got != 16 {
		t.Errorf("Set backwards moved clock to %d", got)
	}
	c.Set(20)
	if got := c.Now(); got != 20 {
		t.Errorf("Set forwards = %d, want 20", got)
	}
}

func TestLogicalZeroValue(t *testing.T) {
	var c Logical
	if got := c.Tick(); got != 1 {
		t.Errorf("zero-value Tick = %d, want 1", got)
	}
}

func TestLogicalConcurrentTicksAreUnique(t *testing.T) {
	c := NewLogical(0)
	const n = 64
	var wg sync.WaitGroup
	seen := make([]uint64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seen[i] = c.Tick()
		}(i)
	}
	wg.Wait()
	uniq := make(map[uint64]bool, n)
	for _, v := range seen {
		if uniq[v] {
			t.Fatalf("duplicate tick value %d", v)
		}
		uniq[v] = true
	}
	if got := c.Now(); got != n {
		t.Errorf("final Now = %d, want %d", got, n)
	}
}

func TestWallMonotonic(t *testing.T) {
	c := NewWall()
	a := c.Tick()
	b := c.Tick()
	if b < a {
		t.Errorf("wall clock went backwards: %d then %d", a, b)
	}
}

func TestClockInterfaceCompliance(t *testing.T) {
	var _ Clock = (*Logical)(nil)
	var _ Clock = (*Wall)(nil)
}
