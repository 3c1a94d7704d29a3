package segment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/identity"
	manifestlog "github.com/seldel/seldel/internal/manifest"
	"github.com/seldel/seldel/internal/simclock"
)

// openEnv is one writer and the chain geometry TestOpen uses: short
// sequences and a one-sequence bound, so a handful of entries truncates.
type openEnv struct {
	kp  *identity.KeyPair
	reg *identity.Registry
}

func newOpenEnv(t *testing.T) openEnv {
	t.Helper()
	e := openEnv{kp: identity.Deterministic("writer", "open-test"), reg: identity.NewRegistry()}
	if err := e.reg.RegisterKey(e.kp, identity.RoleUser); err != nil {
		t.Fatal(err)
	}
	return e
}

func (e openEnv) config() chain.Config {
	return chain.Config{
		SequenceLength: 3,
		MaxSequences:   1,
		Shrink:         chain.ShrinkMinimal,
		Registry:       e.reg,
		Clock:          simclock.NewLogical(0),
	}
}

// write seals n entries one per block, deleting each right after when
// del is set, and waits out compaction. It returns the last entry's ref.
func (e openEnv) write(t *testing.T, c *chain.Chain, tag string, n int, del bool) block.Ref {
	t.Helper()
	ctx := context.Background()
	var last block.Ref
	for i := 0; i < n; i++ {
		sealed, err := c.SubmitWait(ctx, block.NewData("writer", []byte(fmt.Sprintf("%s-%d", tag, i))).Sign(e.kp))
		if err != nil {
			t.Fatalf("SubmitWait(%s-%d): %v", tag, i, err)
		}
		last = sealed[0].Ref
		if del && i < n-1 {
			if _, err := c.SubmitWait(ctx, block.NewDeletion("writer", last).Sign(e.kp)); err != nil {
				t.Fatalf("delete %s-%d: %v", tag, i, err)
			}
		}
	}
	if err := c.CompactWait(ctx); err != nil {
		t.Fatal(err)
	}
	return last
}

var _ chain.Store = (*Store)(nil)

// mirrors fails the test unless s holds exactly c's live blocks.
func mirrors(t *testing.T, s chain.Store, c *chain.Chain) {
	t.Helper()
	first, last, ok, err := s.Range()
	if err != nil || !ok {
		t.Fatalf("store Range: ok=%v err=%v", ok, err)
	}
	if first != c.Marker() || last != c.Head().Number {
		t.Errorf("store holds %d..%d, chain is %d..%d", first, last, c.Marker(), c.Head().Number)
	}
	if err := c.StoreErr(); err != nil {
		t.Errorf("store error: %v", err)
	}
}

// syncCounting wraps a segment store the way the benchmark's tracing
// decorator does: the rest of chain.Store comes from the embedded
// store, Sync is the wrapper's own.
type syncCounting struct {
	*Store
	syncs atomic.Int64
}

func (s *syncCounting) Sync() error {
	s.syncs.Add(1)
	return s.Store.Sync()
}

// TestOpen covers chain.Open — the one way a chain gets onto a store.
// reopen returns the store as the next process would find it: the
// segment directory closed and reopened.
func TestOpen(t *testing.T) {
	segmentTarget := func(t *testing.T) (func() chain.Store, string) {
		dir := t.TempDir()
		var cur *Store
		t.Cleanup(func() { cur.Close() })
		return func() chain.Store {
			if cur != nil {
				if err := cur.Close(); err != nil {
					t.Fatalf("closing store: %v", err)
				}
			}
			cur = open(t, dir, Options{SegmentBytes: 1024})
			return cur
		}, dir
	}

	t.Run("segment/empty", func(t *testing.T) {
		e := newOpenEnv(t)
		reopen, _ := segmentTarget(t)
		s := reopen()
		c, err := chain.Open(e.config(), s)
		if err != nil {
			t.Fatalf("Open on an empty store: %v", err)
		}
		defer c.Close()
		if c.Head().Number != 0 || c.Marker() != 0 {
			t.Fatalf("created chain is %d..%d, want genesis only", c.Marker(), c.Head().Number)
		}
		mirrors(t, s, c)
		e.write(t, c, "first", 8, false)
		if c.Marker() == 0 {
			t.Fatal("chain never truncated; geometry broken")
		}
		mirrors(t, s, c)
	})

	t.Run("segment/populated", func(t *testing.T) {
		e := newOpenEnv(t)
		reopen, _ := segmentTarget(t)
		c, err := chain.Open(e.config(), reopen())
		if err != nil {
			t.Fatal(err)
		}
		keep := e.write(t, c, "first", 8, false)
		head, marker := c.HeadHash(), c.Marker()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}

		s := reopen()
		restored, err := chain.Open(e.config(), s)
		if err != nil {
			t.Fatalf("Open on a populated store: %v", err)
		}
		defer restored.Close()
		if restored.HeadHash() != head {
			t.Error("restored head differs")
		}
		if restored.Marker() != marker {
			t.Errorf("restored marker %d, want %d", restored.Marker(), marker)
		}
		if err := restored.VerifyIntegrity(); err != nil {
			t.Errorf("restored integrity: %v", err)
		}
		if _, _, ok := restored.Lookup(keep); !ok {
			t.Error("restored chain lost a live entry")
		}
		e.write(t, restored, "second", 4, false)
		mirrors(t, s, restored)
	})

	t.Run("segment/group-sync-from-store", func(t *testing.T) {
		e := newOpenEnv(t)
		reopen, _ := segmentTarget(t)
		cfg := e.config()
		cfg.Durability.Mode = chain.DurabilityGroup
		seg := reopen().(*Store)
		before := seg.FsyncCount()
		c, err := chain.Open(cfg, seg)
		if err != nil {
			t.Fatalf("Open with group durability: %v", err)
		}
		e.write(t, c, "direct", 2, false)
		if seg.FsyncCount() == before {
			t.Error("receipts resolved without the store's Sync running")
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}

		// Through a wrapper, Sync must be the wrapper's.
		cfg.Clock = simclock.NewLogical(0)
		w := &syncCounting{Store: reopen().(*Store)}
		c, err = chain.Open(cfg, w)
		if err != nil {
			t.Fatalf("Open through a wrapping store: %v", err)
		}
		defer c.Close()
		e.write(t, c, "wrapped", 2, false)
		if w.syncs.Load() == 0 {
			t.Error("group commit bypassed the wrapping store's Sync")
		}
	})

	// The DELETIONS log can outlive the blocks it describes.
	t.Run("segment/wiped-blocks-kept-deletions", func(t *testing.T) {
		e := newOpenEnv(t)
		reopen, dir := segmentTarget(t)
		c, err := chain.Open(e.config(), reopen())
		if err != nil {
			t.Fatal(err)
		}
		e.write(t, c, "first", 8, true)
		floor := c.ResurrectionFloor()
		recs, err := c.Tombstones(context.Background())
		if err != nil || floor == 0 || len(recs) == 0 {
			t.Fatalf("first life left no deletion records: floor=%d records=%d err=%v", floor, len(recs), err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		s := reopen().(*Store)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		for _, pattern := range []string{"seg-*.seg", "MANIFEST"} {
			matches, err := filepath.Glob(filepath.Join(dir, pattern))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range matches {
				if err := os.Remove(m); err != nil {
					t.Fatal(err)
				}
			}
		}

		s = reopen().(*Store)
		storeMarker, err := s.Marker()
		if err != nil || storeMarker != floor {
			t.Fatalf("wiped store's marker = %d, %v; want %d rolled forward from DELETIONS", storeMarker, err, floor)
		}
		fresh, err := chain.Open(e.config(), s)
		if err != nil {
			t.Fatalf("Open on a wiped store: %v", err)
		}
		defer fresh.Close()
		if fresh.Marker() != 0 || fresh.Head().Number != 0 {
			t.Errorf("wiped store produced chain %d..%d, want a fresh genesis", fresh.Marker(), fresh.Head().Number)
		}
		if got := fresh.ResurrectionFloor(); got != floor {
			t.Errorf("resurrection floor %d, want %d seeded from DELETIONS", got, floor)
		}
		if got, _ := fresh.Tombstones(context.Background()); len(got) != len(recs) {
			t.Errorf("%d deletion records seeded, want %d", len(got), len(recs))
		}
		if m, err := s.Marker(); err != nil || m != floor {
			t.Errorf("store marker = %d, %v after Open; want it left at %d", m, err, floor)
		}
	})
}

// slowSummaryStore is a segment store whose summary-block writes take
// 20 ms — a slow disk, or a summary of megabytes — and which copies its
// directory the moment each truncation returns: the image a crash right
// then would leave behind, with the entries acknowledged by that time.
type slowSummaryStore struct {
	*Store
	dir, images string

	mu       sync.Mutex // orders writes against the copy
	acked    []block.Ref
	captured []crashImage
	early    []string // truncations that found their summary unwritten
	failed   error
}

type crashImage struct {
	dir   string
	acked []block.Ref
}

func (s *slowSummaryStore) PutBlock(b *block.Block) error {
	if b.IsSummary() {
		time.Sleep(20 * time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Store.PutBlock(b)
}

func (s *slowSummaryStore) DeleteBelowRecord(marker uint64, rec *manifestlog.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.Store.GetBlock(rec.SummaryBlock); err != nil {
		s.early = append(s.early, fmt.Sprintf("truncation to %d before summary %d was written", marker, rec.SummaryBlock))
	}
	if err := s.Store.DeleteBelowRecord(marker, rec); err != nil {
		return err
	}
	img := crashImage{dir: filepath.Join(s.images, fmt.Sprint(len(s.captured))), acked: append([]block.Ref(nil), s.acked...)}
	if err := copyFiles(s.dir, img.dir); err != nil && s.failed == nil {
		s.failed = err
	}
	s.captured = append(s.captured, img)
	return nil
}

// copyFiles copies every regular file of dir into a new directory to.
func copyFiles(dir, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// TestTruncationReachesStoreAfterItsSummary: the store deletes below a
// new marker only once it holds the summary block that carries what the
// cut removes, however slowly that block is written. A crash right after
// any truncation then reopens with every acknowledged entry.
func TestTruncationReachesStoreAfterItsSummary(t *testing.T) {
	e := newOpenEnv(t)
	dir := t.TempDir()
	s := &slowSummaryStore{Store: open(t, dir, Options{}), dir: dir, images: t.TempDir()}
	defer s.Store.Close()
	c, err := chain.Open(e.config(), s)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		sealed, err := c.SubmitWait(ctx, block.NewData("writer", []byte(fmt.Sprintf("kept-%d", i))).Sign(e.kp))
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		s.acked = append(s.acked, sealed[0].Ref)
		s.mu.Unlock()
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if s.failed != nil {
		t.Fatal(s.failed)
	}
	if len(s.captured) == 0 {
		t.Fatal("the chain never truncated")
	}
	for _, msg := range s.early {
		t.Error(msg)
	}
	for i, img := range s.captured {
		reopened := open(t, img.dir, Options{})
		rc, err := chain.Open(e.config(), reopened)
		if err != nil {
			t.Fatalf("image %d: reopen: %v", i, err)
		}
		for _, ref := range img.acked {
			if _, _, ok := rc.Lookup(ref); !ok {
				t.Errorf("image %d (marker %d, head %d): acknowledged entry %s is gone",
					i, rc.Marker(), rc.Head().Number, ref)
			}
		}
		rc.Close()
		reopened.Close()
	}
}

var errInjected = errors.New("injected store fault")

// faultStore is a segment store whose writes can be made to fail.
type faultStore struct {
	*Store
	// failPutFrom makes PutBlock fail for block numbers at or above it.
	failPutFrom uint64
	// failPrune makes DeleteBelowRecord fail.
	failPrune bool
}

func (s *faultStore) PutBlock(b *block.Block) error {
	if b.Header.Number >= s.failPutFrom {
		return errInjected
	}
	return s.Store.PutBlock(b)
}

func (s *faultStore) DeleteBelowRecord(marker uint64, rec *manifestlog.Record) error {
	if s.failPrune {
		return errInjected
	}
	return s.Store.DeleteBelowRecord(marker, rec)
}

// TestStoreFailureStopsReceipts: once a block or a prune did not reach
// the store, no receipt resolves as sealed or durable any more, nothing
// further is sealed, and Close reports it.
func TestStoreFailureStopsReceipts(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []struct {
		name string
		mode chain.DurabilityMode
	}{{"seal", chain.DurabilitySeal}, {"group", chain.DurabilityGroup}} {
		setup := func(t *testing.T, fs *faultStore) (openEnv, *chain.Chain) {
			t.Helper()
			e := newOpenEnv(t)
			fs.Store = open(t, t.TempDir(), Options{})
			t.Cleanup(func() { fs.Store.Close() })
			cfg := e.config()
			cfg.Durability.Mode = mode.mode
			c, err := chain.Open(cfg, fs)
			if err != nil {
				t.Fatal(err)
			}
			return e, c
		}
		entry := func(e openEnv, tag string) *block.Entry {
			return block.NewData("writer", []byte(tag)).Sign(e.kp)
		}
		// stopped checks the state every failure must end in.
		stopped := func(t *testing.T, e openEnv, c *chain.Chain) {
			t.Helper()
			head := c.Head().Number
			if _, err := c.SubmitWait(ctx, entry(e, "after")); !errors.Is(err, chain.ErrStore) || !errors.Is(err, errInjected) {
				t.Errorf("SubmitWait after the failure: %v, want ErrStore wrapping the cause", err)
			}
			if c.Head().Number != head {
				t.Errorf("chain sealed block %d after the failure", c.Head().Number)
			}
			if err := c.Close(); !errors.Is(err, chain.ErrStore) {
				t.Errorf("Close: %v, want ErrStore", err)
			}
		}

		t.Run(mode.name+"/put", func(t *testing.T) {
			// Blocks 1 and 3 hold entries (2 is a summary); block 4's
			// write fails.
			fs := &faultStore{failPutFrom: 4}
			e, c := setup(t, fs)
			for i := 0; i < 2; i++ {
				if _, err := c.SubmitWait(ctx, entry(e, fmt.Sprintf("ok-%d", i))); err != nil {
					t.Fatalf("SubmitWait before the failure: %v", err)
				}
			}
			receipts, err := c.Submit(ctx, entry(e, "lost"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := receipts[0].Wait(ctx); !errors.Is(err, chain.ErrStore) {
				t.Errorf("receipt of the block that was not persisted: %v, want ErrStore", err)
			}
			if _, last, _, _ := fs.Range(); last != 3 {
				t.Errorf("store's last block is %d, want 3", last)
			}
			stopped(t, e, c)
		})

		t.Run(mode.name+"/prune", func(t *testing.T) {
			fs := &faultStore{failPutFrom: math.MaxUint64, failPrune: true}
			e, c := setup(t, fs)
			// The batch that truncates may already see the failed prune:
			// the compactor runs beside its receipt's resolution.
			for i := 0; c.Marker() == 0; i++ {
				if _, err := c.SubmitWait(ctx, entry(e, fmt.Sprintf("churn-%d", i))); err != nil && c.Marker() == 0 {
					t.Fatalf("SubmitWait before the truncation: %v", err)
				}
			}
			if err := c.CompactWait(ctx); err != nil {
				t.Fatal(err)
			}
			if m, _ := fs.Marker(); m != 0 {
				t.Fatalf("store marker moved to %d though the prune failed", m)
			}
			stopped(t, e, c)
		})
	}
}
