package segment

import (
	"errors"
	"fmt"
	"io"
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

// DeletionHead returns the most recent deletion record, if any.
func (s *Store) DeletionHead() (manifestlog.Record, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return manifestlog.Record{}, false, store.ErrClosed
	}
	head, ok := s.del.Head()
	return head, ok, nil
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
	// Snapshot is the checkpoint (nil when never truncated);
	// SnapshotErr is set when the file exists but fails validation.
	Snapshot    *Snapshot
	SnapshotErr string
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
// intended use is offline diagnosis.
func Inspect(dir string) (*DirInfo, error) {
	info := &DirInfo{Dir: dir}
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("segment: inspect: %w", err)
	}
	switch man, err := readManifest(dir); {
	case err == nil:
		info.MarkerFile = man.marker
	default:
		info.MarkerErr = err.Error()
	}
	switch snap, err := readSnapshot(dir); {
	case err == nil:
		info.Snapshot = &snap
	case errors.Is(err, errNoCheckpoint):
	default:
		info.SnapshotErr = err.Error()
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("segment: inspect: %w", err)
	}
	for _, e := range names {
		id, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		si, err := scanSegmentFile(id, filepath.Join(dir, e.Name()))
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

// scanSegmentFile walks one segment's records read-only, using the
// same framing as openSegment but repairing nothing.
func scanSegmentFile(id uint64, path string) (SegmentInfo, error) {
	si := SegmentInfo{ID: id, Path: path}
	f, err := os.Open(path)
	if err != nil {
		return si, fmt.Errorf("segment: inspect %s: %w", path, err)
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		return si, fmt.Errorf("segment: inspect %s: %w", path, err)
	}
	si.SizeBytes = int64(len(raw))
	if len(raw) < len(segMagic) || string(raw[:len(segMagic)]) != segMagic {
		si.Torn = len(raw) > 0
		return si, nil
	}
	good := int64(len(segMagic))
	for {
		num, _, span, ok := parseRecord(raw[good:])
		if !ok {
			break
		}
		if si.Records == 0 || num < si.First {
			si.First = num
		}
		if si.Records == 0 || num > si.Last {
			si.Last = num
		}
		si.Records++
		good += int64(span)
	}
	si.Torn = good < int64(len(raw))
	return si, nil
}
