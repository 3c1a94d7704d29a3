package segment

import "github.com/seldel/seldel/internal/store"

// OpenHandles reports how many segment file handles are open: always at
// least the active segment's.
func (s *Store) OpenHandles() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, store.ErrClosed
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
