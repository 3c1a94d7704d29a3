package segment

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	manifestlog "github.com/seldel/seldel/internal/manifest"
)

// manifestName is the manifest file inside a store directory.
const manifestName = "MANIFEST"

// manifestHeader is the first line of every manifest.
const manifestHeader = "seldel-segment-manifest v1"

// manifestSeg is one segment as the manifest expects it.
type manifestSeg struct {
	id    uint64
	count int
	first uint64
	last  uint64
}

// manifest is the decoded MANIFEST file: the authoritative Genesis
// marker plus the expected segment set. It is advisory about offsets —
// Open always rescans the segment files themselves — but authoritative
// about the marker and about which segments must exist: a listed
// segment missing from disk is data loss unless it lay entirely below
// the marker (an interrupted truncation).
type manifest struct {
	marker   uint64
	segments []manifestSeg
}

// readManifest loads the manifest, returning an empty one when the file
// does not exist (a fresh store, or one predating its first write).
func readManifest(dir string) (*manifest, error) {
	path := filepath.Join(dir, manifestName)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return &manifest{}, nil
		}
		return nil, fmt.Errorf("segment: read manifest: %w", err)
	}
	defer f.Close()
	man := &manifest{}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if line == 1 {
			if text != manifestHeader {
				return nil, fmt.Errorf("segment: manifest: unrecognized header %q", text)
			}
			continue
		}
		if text == "" {
			continue
		}
		switch {
		case strings.HasPrefix(text, "marker "):
			if _, err := fmt.Sscanf(text, "marker %d", &man.marker); err != nil {
				return nil, fmt.Errorf("segment: manifest line %d: %w", line, err)
			}
		case strings.HasPrefix(text, "segment "):
			var ms manifestSeg
			if _, err := fmt.Sscanf(text, "segment %d %d %d %d", &ms.id, &ms.count, &ms.first, &ms.last); err != nil {
				return nil, fmt.Errorf("segment: manifest line %d: %w", line, err)
			}
			man.segments = append(man.segments, ms)
		default:
			return nil, fmt.Errorf("segment: manifest line %d: unrecognized directive %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("segment: read manifest: %w", err)
	}
	return man, nil
}

// writeManifestLocked persists the current marker and segment set
// atomically (temp file + fsync + rename + directory fsync), so a crash
// leaves either the old or the new manifest, never a torn one.
func (s *Store) writeManifestLocked() error {
	var b strings.Builder
	fmt.Fprintln(&b, manifestHeader)
	fmt.Fprintf(&b, "marker %d\n", s.marker)
	for _, seg := range s.segs {
		fmt.Fprintf(&b, "segment %d %d %d %d\n", seg.id, seg.count, seg.first, seg.last)
	}
	if err := manifestlog.WriteFileAtomic(filepath.Join(s.dir, manifestName), []byte(b.String())); err != nil {
		return fmt.Errorf("segment: manifest: %w", err)
	}
	return nil
}
