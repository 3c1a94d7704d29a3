package segment

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	manifestlog "github.com/seldel/seldel/internal/manifest"
	"github.com/seldel/seldel/internal/store"
)

// DeletionRecords returns every readable deletion record, oldest
// first. Empty when no truncation has executed yet.
func (s *Store) DeletionRecords() ([]manifestlog.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, store.ErrClosed
	}
	return s.del.Records(), nil
}

// DeletionWarnings returns the recovery diagnostics the deletion
// manifest accumulated at Open (corrupt lines skipped, torn tail
// truncated); empty for a clean manifest.
func (s *Store) DeletionWarnings() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.del.Warnings()
}

// DeletionLog exposes the underlying manifest log for the doctor's
// repair paths — hydrating missing records and archiving applied ones
// need append/rewrite access.
func (s *Store) DeletionLog() *manifestlog.Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.del
}

// SegmentInfo describes one on-disk segment file as found by Inspect.
type SegmentInfo struct {
	ID        uint64
	Path      string
	SizeBytes int64
	// Records is the number of decodable records; First and Last bound
	// their block numbers when Records > 0.
	Records int
	First   uint64
	Last    uint64
	// Torn reports undecodable bytes after the last good record — the
	// signature of a crash mid-append (Open repairs it by truncation).
	Torn bool
}

// DirInfo is a read-only view of a store directory's durable state, the
// raw material for `seldel doctor`'s cross-validation. Inspect mutates
// nothing: corrupt metadata is reported, not repaired.
type DirInfo struct {
	Dir string
	// MarkerFile is the MANIFEST's Genesis marker (0 when absent).
	MarkerFile uint64
	// MarkerErr is set when the MANIFEST exists but cannot be parsed.
	MarkerErr string
	// RetiredSnapshot reports a leftover SNAPSHOT file: a copy of an old
	// marker block that no reader uses and that Open removes.
	RetiredSnapshot bool
	// Segments lists the segment files on disk, ascending by id.
	Segments []SegmentInfo
	// First and Last bound the block numbers across all decodable
	// records when HasBlocks (ignoring markers — the inspector reports,
	// the doctor judges).
	First     uint64
	Last      uint64
	HasBlocks bool
}

// Inspect reads a store directory's durable state without opening the
// store: no torn-tail truncation, no interrupted-truncation completion,
// no manifest rewrite. Safe to run against a directory another process
// has open only insofar as the filesystem serves consistent reads; the
// intended use is offline diagnosis. A directory in a retired layout
// fails with ErrRetiredLayout.
func Inspect(dir string) (*DirInfo, error) {
	info := &DirInfo{Dir: dir}
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("segment: inspect: %w", err)
	}
	if err := checkLayout(dir); err != nil {
		return nil, err
	}
	switch man, err := readManifest(dir); {
	case err == nil:
		info.MarkerFile = man.marker
	default:
		info.MarkerErr = err.Error()
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("segment: inspect: %w", err)
	}
	// One read buffer for every segment file, grown to the largest.
	var buf []byte
	sizedBuf := func(n int) []byte {
		buf = sized(buf, n)
		return buf
	}
	for _, e := range names {
		if e.Name() == retiredSnapshotName {
			info.RetiredSnapshot = true
		}
		id, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		si, err := scanSegmentFile(id, filepath.Join(dir, e.Name()), sizedBuf)
		if err != nil {
			return nil, err
		}
		info.Segments = append(info.Segments, si)
		if si.Records > 0 {
			if !info.HasBlocks || si.First < info.First {
				info.First = si.First
			}
			if !info.HasBlocks || si.Last > info.Last {
				info.Last = si.Last
			}
			info.HasBlocks = true
		}
	}
	sort.Slice(info.Segments, func(i, j int) bool { return info.Segments[i].ID < info.Segments[j].ID })
	return info, nil
}

// scanSegmentFile walks one segment's records read-only, through the
// same scan as openSegment (scanSegment) but repairing nothing. The file
// is read into buf, which Inspect passes from one file to the next, and
// the bytes read are cleared before it returns.
func scanSegmentFile(id uint64, path string, buf func(n int) []byte) (SegmentInfo, error) {
	si := SegmentInfo{ID: id, Path: path}
	f, err := os.Open(path)
	if err != nil {
		return si, fmt.Errorf("segment: inspect %s: %w", path, err)
	}
	defer f.Close()
	raw, good, err := scanSegment(f, buf, func(num uint64, _ int64, _ int) {
		if si.Records == 0 || num < si.First {
			si.First = num
		}
		if si.Records == 0 || num > si.Last {
			si.Last = num
		}
		si.Records++
	})
	clear(raw)
	if err != nil {
		return si, fmt.Errorf("segment: inspect %s: %w", path, err)
	}
	si.SizeBytes = int64(len(raw))
	si.Torn = good < si.SizeBytes
	return si, nil
}
