package segment

import (
	"testing"
)

// CutBare cuts s to marker through DeleteBelow and fails t unless the
// cut left its bare record as the DELETIONS head: the shift from the
// store's previous marker to marker, the next sequence number, and
// nothing else.
func CutBare(t testing.TB, s *Store, marker uint64) {
	t.Helper()
	old, err := s.Marker()
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.DeletionRecords()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteBelow(marker); err != nil {
		t.Fatalf("DeleteBelow(%d): %v", marker, err)
	}
	recs, err := s.DeletionRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(before)+1 {
		t.Fatalf("DeleteBelow(%d) left %d deletion records, want %d", marker, len(recs), len(before)+1)
	}
	head := recs[len(recs)-1]
	wantSeq := uint64(1)
	if len(before) > 0 {
		wantSeq = before[len(before)-1].Seq + 1
	}
	if head.Seq != wantSeq || head.OldMarker != old || head.NewMarker != marker ||
		head.SummaryBlock != 0 || len(head.Tombstones) != 0 || head.Hydrated {
		t.Fatalf("DeleteBelow(%d) recorded %+v, want the bare record %d: [%d, %d)", marker, head, wantSeq, old, marker)
	}
}

// OpenHandles reports how many segment file handles are open: always at
// least the active segment's.
func (s *Store) OpenHandles() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	open := 0
	for _, seg := range s.segs {
		if seg.f != nil {
			open++
		}
	}
	return open, nil
}

// RecordBufferForTest returns the store's record buffer up to its full
// capacity, bytes past the last record's length included.
func (s *Store) RecordBufferForTest() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec[:cap(s.rec)]
}

// fsyncSites counts the fsyncs a store issued at each place it issues
// them: segment data files, the directory on its own, DELETIONS appends
// and MANIFEST rewrites (two each).
type fsyncSites struct{ segment, dir, deletions, manifest uint64 }

func (s *Store) fsyncSites() fsyncSites {
	return fsyncSites{
		segment:   s.fsyncs[syncSegment].Load(),
		dir:       s.fsyncs[syncDir].Load(),
		deletions: s.fsyncs[syncDeletions].Load(),
		manifest:  s.fsyncs[syncManifest].Load(),
	}
}

// since returns the fsyncs issued between before and f.
func (f fsyncSites) since(before fsyncSites) fsyncSites {
	return fsyncSites{
		segment:   f.segment - before.segment,
		dir:       f.dir - before.dir,
		deletions: f.deletions - before.deletions,
		manifest:  f.manifest - before.manifest,
	}
}

func (f fsyncSites) total() uint64 { return f.segment + f.dir + f.deletions + f.manifest }
