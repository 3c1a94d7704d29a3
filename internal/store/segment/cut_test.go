package segment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/identity"
	manifestlog "github.com/seldel/seldel/internal/manifest"
	"github.com/seldel/seldel/internal/simclock"
)

// cutWatch is a segment store whose every cut is checked against the
// directory as it stood before: a segment that survives keeps its inode
// and every byte it held, no temporary file appears, and no segment file
// holds a record below the new marker.
type cutWatch struct {
	*Store
	t    *testing.T
	dir  string
	cuts int // touched only by the chain's compactor, one cut at a time
}

func (w *cutWatch) DeleteBelowRecord(marker uint64, rec *manifestlog.Record) error {
	before := w.files()
	if err := w.Store.DeleteBelowRecord(marker, rec); err != nil {
		return err
	}
	w.cuts++
	for name, fi := range w.files() {
		if _, ok := parseSegmentName(name); !ok {
			w.t.Errorf("cut to %d left %s in the store directory", marker, name)
			continue
		}
		// Appends run beside the cut, so a segment may only have grown.
		if old, ok := before[name]; ok && (!os.SameFile(old, fi) || fi.Size() < old.Size()) {
			w.t.Errorf("cut to %d rewrote %s: %d bytes before, %d after, same inode: %v",
				marker, name, old.Size(), fi.Size(), os.SameFile(old, fi))
		}
	}
	info, err := Inspect(w.dir)
	if err != nil {
		return err
	}
	for _, si := range info.Segments {
		if si.Records > 0 && si.First < marker {
			w.t.Errorf("after the cut to %d, segment %d holds blocks %d..%d", marker, si.ID, si.First, si.Last)
		}
	}
	return nil
}

// files stats the segment files in the store directory and any
// temporary file beside one.
func (w *cutWatch) files() map[string]os.FileInfo {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		w.t.Error(err)
		return nil
	}
	files := make(map[string]os.FileInfo, len(entries))
	for _, e := range entries {
		if _, ok := parseSegmentName(e.Name()); !ok && !strings.HasSuffix(e.Name(), ".seg.tmp") {
			continue // MANIFEST, DELETIONS, and MANIFEST.tmp while a roll rewrites it
		}
		fi, err := os.Stat(filepath.Join(w.dir, e.Name()))
		if err != nil {
			w.t.Error(err)
			continue
		}
		files[e.Name()] = fi
	}
	return files
}

// TestCutOnlyUnlinks pins the price of a cut at zero bytes rewritten: a
// chain at 8 sequences of 8 under ShrinkMinimal cuts one sequence per
// summary block once it is full, and each cut only unlinks segment files
// — every file that survives is the same inode holding the same bytes.
// It runs at the default segment size, where a sequence fits one file,
// and at a tiny one, where a sequence spreads over several.
func TestCutOnlyUnlinks(t *testing.T) {
	for _, segBytes := range []int64{0, 512} {
		t.Run(fmt.Sprintf("SegmentBytes=%d", segBytes), func(t *testing.T) {
			reg := identity.NewRegistry()
			kp := identity.Deterministic("writer", "cut-test")
			if err := reg.RegisterKey(kp, identity.RoleUser); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			w := &cutWatch{Store: open(t, dir, Options{SegmentBytes: segBytes}), t: t, dir: dir}
			defer w.Close()
			cfg := chain.Config{
				SequenceLength: 8,
				MaxSequences:   8,
				Shrink:         chain.ShrinkMinimal,
				Registry:       reg,
				Clock:          simclock.NewLogical(0),
			}
			c, err := chain.Open(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx := context.Background()
			// Each block writes one entry and erases the one before it, so
			// Σ carries little and the live chain stays at its bound.
			var prev block.Ref
			for i := 0; i < 480; i++ {
				entries := []*block.Entry{block.NewData("writer", []byte(fmt.Sprintf("entry-%03d", i))).Sign(kp)}
				if i > 0 {
					entries = append(entries, block.NewDeletion("writer", prev).Sign(kp))
				}
				sealed, err := c.SubmitWait(ctx, entries...)
				if err != nil {
					t.Fatalf("SubmitWait(%d): %v", i, err)
				}
				prev = sealed[0].Ref
			}
			if err := c.CompactWait(ctx); err != nil {
				t.Fatal(err)
			}
			if err := c.StoreErr(); err != nil {
				t.Fatal(err)
			}
			if w.cuts < 50 {
				t.Fatalf("%d cuts, want at least 50", w.cuts)
			}
			n, err := w.SegmentCount()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d cuts, each unlinking only; %d live segments for %d live blocks", w.cuts, n, c.Len())
		})
	}
}

// TestCutInsideASegmentIsRefused: a marker that is not a sequence start
// lies inside a segment, which no unlink can split. The cut fails before
// anything is made durable, and the store keeps serving every block, at
// its old marker, across a reopen.
func TestCutInsideASegmentIsRefused(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	blocks := fill(t, s, 12)
	if err := s.DeleteBelowRecord(4, &manifestlog.Record{NewMarker: 4}); err == nil {
		t.Fatal("a cut to 4, inside the sequence 3..5, succeeded")
	}
	check := func(s *Store, when string) {
		t.Helper()
		if m, err := s.Marker(); err != nil || m != 0 {
			t.Errorf("%s: marker %d (%v), want 0", when, m, err)
		}
		if recs, err := s.DeletionRecords(); err != nil || len(recs) != 0 {
			t.Errorf("%s: %d deletion records (%v), want none", when, len(recs), err)
		}
		for _, want := range blocks {
			got, err := s.GetBlock(want.Header.Number)
			if err != nil || got.Hash() != want.Hash() {
				t.Errorf("%s: GetBlock(%d) = %v", when, want.Header.Number, err)
			}
		}
	}
	check(s, "after the refusal")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open(t, dir, Options{})
	defer s.Close()
	check(s, "after a reopen")
}

// TestSequenceBoundaryFsyncs pins what a sequence boundary costs in
// fsyncs, counted at each place the store issues one: Σ's append, its
// cut and the append after it issue four in all — the segment holding
// Σ, the DELETIONS record, and one MANIFEST rewrite (its temporary file
// and the directory) — and both appends issue none. The cut starts the
// next segment itself, so the append after Σ rolls nothing.
func TestSequenceBoundaryFsyncs(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	blocks := fill(t, s, 5)
	sigma := testBlock(t, 5, blocks[4])
	next := testBlock(t, 6, sigma)
	if !sigma.IsSummary() {
		t.Fatal("block 5 is not a summary block; the fixture changed")
	}
	steps := []struct {
		name string
		run  func() error
		want fsyncSites
	}{
		{"Σ's PutBlock", func() error { return s.PutBlock(sigma) }, fsyncSites{}},
		{"the cut", func() error {
			return s.DeleteBelowRecord(3, &manifestlog.Record{NewMarker: 3})
		}, fsyncSites{segment: 1, deletions: 1, manifest: 2}},
		{"the next PutBlock", func() error { return s.PutBlock(next) }, fsyncSites{}},
	}
	var total uint64
	for _, st := range steps {
		before := s.fsyncSites()
		if err := st.run(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		got := s.fsyncSites().since(before)
		total += got.total()
		if got != st.want {
			t.Errorf("%s: fsyncs %+v, want %+v", st.name, got, st.want)
		}
	}
	if total != 4 {
		t.Errorf("one sequence boundary issued %d fsyncs, want 4", total)
	}
	s.mu.Lock()
	sigmaSeg, nextSeg := s.index[5].seg, s.index[6].seg
	s.mu.Unlock()
	if sigmaSeg == nextSeg {
		t.Errorf("block 6 shares segment %d with Σ: a segment spans the sequence start", sigmaSeg.id)
	}
}

// TestSyncCoversANewSegmentsEntry: a record is durable only once the
// segment file holding it is reachable, so a Sync that covers records in
// a segment created since the directory was last fsynced syncs the
// directory too. A cut starts the next segment before its DELETIONS
// append; when that append fails, no MANIFEST rewrite makes the new
// segment's entry durable, and the next Sync must.
func TestSyncCoversANewSegmentsEntry(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	blocks := fill(t, s, 6)
	if err := s.DeleteBelowRecord(3, &manifestlog.Record{Seq: 5, NewMarker: 3}); err != nil {
		t.Fatal(err)
	}
	prev := blocks[5]
	for num := uint64(6); num < 9; num++ {
		prev = testBlock(t, num, prev)
		if err := s.PutBlock(prev); err != nil {
			t.Fatal(err)
		}
	}
	// Sequence number 1 is behind the log's next: the append fails after
	// the cut started the segment after Σ (block 8).
	if err := s.DeleteBelowRecord(6, &manifestlog.Record{Seq: 1, NewMarker: 6}); !errors.Is(err, manifestlog.ErrSeqOrder) {
		t.Fatalf("cut with a stale sequence number: %v, want ErrSeqOrder", err)
	}
	if err := s.PutBlock(testBlock(t, 9, prev)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	fresh := s.index[9].seg != s.index[8].seg
	s.mu.Unlock()
	if !fresh {
		t.Fatal("block 9 shares Σ's segment: the failed cut started none")
	}
	before := s.fsyncSites()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.fsyncSites().since(before), (fsyncSites{segment: 1, dir: 1}); got != want {
		t.Errorf("Sync over a new segment: fsyncs %+v, want %+v", got, want)
	}
	before = s.fsyncSites()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.fsyncSites().since(before), (fsyncSites{segment: 1}); got != want {
		t.Errorf("Sync once the directory is synced: fsyncs %+v, want %+v", got, want)
	}
}
