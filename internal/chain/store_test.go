package chain

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/manifest"
	"github.com/seldel/seldel/internal/store/segment"
)

// hookStore is a segment store whose writes call the test's hooks first:
// put with every block PutBlock is handed, cut with every
// DeleteBelowRecord's record, and sync, when set, instead of the
// store's own Sync.
type hookStore struct {
	*segment.Store
	put  func(*block.Block)
	cut  func(marker uint64, rec *manifest.Record)
	sync func() error
}

func (s *hookStore) PutBlock(b *block.Block) error {
	if s.put != nil {
		s.put(b)
	}
	return s.Store.PutBlock(b)
}

func (s *hookStore) DeleteBelowRecord(marker uint64, rec *manifest.Record) error {
	if s.cut != nil {
		s.cut(marker, rec)
	}
	return s.Store.DeleteBelowRecord(marker, rec)
}

func (s *hookStore) Sync() error {
	if s.sync != nil {
		return s.sync()
	}
	return s.Store.Sync()
}

// openSegment opens a segment store in a fresh directory, closed when
// the test ends.
func openSegment(t *testing.T) *segment.Store {
	t.Helper()
	s, err := segment.Open(t.TempDir(), segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestStoreMirrorsChain: a store attached to a chain holds exactly the
// chain's live blocks after appends and cuts.
func TestStoreMirrorsChain(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := defaultConfig(env)
	cfg.MaxSequences = 1
	cfg.Shrink = ShrinkMinimal
	c := newChain(t, cfg)
	defer c.Close()
	s := openSegment(t)
	if err := c.Attach(s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := SealBlocks(context.Background(), c, env.data("alpha", fmt.Sprintf("p%d", i))); err != nil {
			t.Fatalf("SealBlocks: %v", err)
		}
		if err := c.CompactWait(context.Background()); err != nil {
			t.Fatalf("CompactWait: %v", err)
		}
	}
	if err := c.StoreErr(); err != nil {
		t.Fatalf("store error: %v", err)
	}
	// Store must hold exactly the live blocks.
	first, last, ok, err := s.Range()
	if err != nil || !ok {
		t.Fatal(err)
	}
	if first != c.Marker() || last != c.Head().Number {
		t.Errorf("store range %d..%d, chain %d..%d", first, last, c.Marker(), c.Head().Number)
	}
}

// TestStoreIsWrittenBeforeListeners pins the order a listener can rely
// on (the benchmark times physical erasure by it): whatever the order
// the listener and the store were added in, a block is stored before
// any OnAppend hears of it, and the store's marker has moved before any
// OnTruncate does.
func TestStoreIsWrittenBeforeListeners(t *testing.T) {
	env := newEnv(t, "alpha")
	cfg := defaultConfig(env)
	cfg.MaxSequences = 1
	cfg.Shrink = ShrinkMinimal
	c := newChain(t, cfg)
	defer c.Close()
	s := openSegment(t)
	var mu sync.Mutex
	var appended, truncated int
	var wrong []string
	c.AddListener(&funcListener{
		onAppend: func(b *block.Block) {
			mu.Lock()
			defer mu.Unlock()
			appended++
			if _, err := s.GetBlock(b.Header.Number); err != nil {
				wrong = append(wrong, fmt.Sprintf("OnAppend(%d): not stored: %v", b.Header.Number, err))
			}
		},
		onTruncate: func(_, newMarker uint64) {
			mu.Lock()
			defer mu.Unlock()
			truncated++
			if m, err := s.Marker(); err != nil || m != newMarker {
				wrong = append(wrong, fmt.Sprintf("OnTruncate(→%d): store marker %d (%v)", newMarker, m, err))
			}
		},
	})
	// Added after the listener: the chain, not the registration order,
	// puts the store first.
	if err := c.Attach(s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		mustSeal(t, c, env.data("alpha", fmt.Sprintf("p%d", i)))
	}
	if err := c.CompactWait(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if appended == 0 || truncated == 0 {
		t.Fatalf("%d appends and %d truncations heard, want both", appended, truncated)
	}
	for _, w := range wrong {
		t.Error(w)
	}
}
