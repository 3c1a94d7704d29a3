package segment_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/codec"
	"github.com/seldel/seldel/internal/doctor"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/manifest"
	"github.com/seldel/seldel/internal/store/segment"
)

// storeFiles lists the files in dir that are not segment files, failing
// on any name outside the store's own set: MANIFEST, DELETIONS and
// DELETIONS.archive. Anything else — a SNAPSHOT, a stranded .tmp — is a
// copy of bytes that physical erasure does not reach.
func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var meta []string
	for _, e := range entries {
		name := e.Name()
		if ok, _ := filepath.Match("seg-*.seg", name); ok {
			continue
		}
		switch name {
		case "MANIFEST", manifest.FileName, manifest.ArchiveName:
			meta = append(meta, name)
		default:
			t.Errorf("store directory holds %s", name)
		}
	}
	return meta
}

// markerAndHead returns the store's marker and the hash of its head block.
func markerAndHead(t *testing.T, dir string) (uint64, codec.Hash) {
	t.Helper()
	s, err := segment.Open(dir, segment.Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	marker, err := s.Marker()
	if err != nil {
		t.Fatal(err)
	}
	_, last, ok, err := s.Range()
	if err != nil || !ok {
		t.Fatalf("Range: ok=%v err=%v", ok, err)
	}
	head, err := s.GetBlock(last)
	if err != nil {
		t.Fatal(err)
	}
	return marker, head.Hash()
}

// plantRetiredSnapshot writes dir/SNAPSHOT the way stores wrote it before
// the marker block was kept only as the first live record: a magic, the
// marker, the head, the length-prefixed marker block, and a CRC-32 of
// all of it.
func plantRetiredSnapshot(t *testing.T, dir string, marker *block.Block, head uint64) {
	t.Helper()
	payload := marker.AppendEncode(nil)
	buf := []byte("SELSNAP1")
	buf = binary.LittleEndian.AppendUint64(buf, marker.Header.Number)
	buf = binary.LittleEndian.AppendUint64(buf, head)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	if err := os.WriteFile(filepath.Join(dir, "SNAPSHOT"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// putSequences puts blocks 0..n-1 into s and returns them: a summary
// block Σ ends every third slot, as a chain with SequenceLength 3 seals
// it, so markers at multiples of 3 are sequence starts.
func putSequences(t *testing.T, s *segment.Store, n uint64) []*block.Block {
	t.Helper()
	kp := identity.Deterministic("alpha", "segment-dir-test")
	var blocks []*block.Block
	prevHash := block.GenesisPrevHash
	for num := uint64(0); num < n; num++ {
		e := block.NewData("alpha", []byte(fmt.Sprintf("payload-%d", num))).Sign(kp)
		b := block.NewNormal(num, num+1, prevHash, []*block.Entry{e})
		if (num+1)%3 == 0 {
			b = block.NewSummary(num, num, prevHash, nil, nil)
		}
		if err := s.PutBlock(b); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		prevHash = b.Hash()
	}
	return blocks
}

// TestStoreDirHoldsOnlyItsFiles: after truncations, a reopen and an
// archive, a store directory holds segment files, MANIFEST, DELETIONS and
// DELETIONS.archive and nothing else, so the marker block is stored once.
// A SNAPSHOT left by an older store is flagged by the doctor's check and
// removed by Open, with the marker and head hash unchanged.
func TestStoreDirHoldsOnlyItsFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := segment.Open(dir, segment.Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	// Markers 6, 12 and 15 are sequence starts.
	blocks := putSequences(t, s, 24)
	var old uint64
	for _, m := range []uint64{6, 12, 15} {
		if err := s.DeleteBelowRecord(m, &manifest.Record{OldMarker: old, NewMarker: m}); err != nil {
			t.Fatal(err)
		}
		old = m
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	marker, head := markerAndHead(t, dir)
	if marker != 15 || head != blocks[23].Hash() {
		t.Fatalf("reopened at marker %d head %x, want 15 and block 23's hash", marker, head)
	}
	rep, err := doctor.Run(dir, doctor.Options{Archive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Archived != 2 {
		t.Fatalf("archive: clean=%v archived=%d, want clean and 2: %+v", rep.Clean(), rep.Archived, rep.Findings)
	}
	if got, want := storeFiles(t, dir), []string{"DELETIONS", "DELETIONS.archive", "MANIFEST"}; !slices.Equal(got, want) {
		t.Errorf("metadata files %v, want %v", got, want)
	}

	plantRetiredSnapshot(t, dir, blocks[15], 23)
	rep, err = doctor.Run(dir, doctor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || len(rep.Findings) != 1 {
		t.Fatalf("check of a directory with SNAPSHOT: clean=%v findings %+v, want one finding", rep.Clean(), rep.Findings)
	}
	if f := rep.Findings[0]; f.Code != "retired-snapshot" || f.Severity != doctor.Warn || !f.Repairable {
		t.Errorf("finding %+v, want a repairable retired-snapshot warning", f)
	}
	if m, h := markerAndHead(t, dir); m != marker || h != head {
		t.Errorf("Open over SNAPSHOT: marker %d head %x, want %d %x", m, h, marker, head)
	}
	if _, err := os.Stat(filepath.Join(dir, "SNAPSHOT")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("SNAPSHOT survived Open: %v", err)
	}
	storeFiles(t, dir)
	rep, err = doctor.Run(dir, doctor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("check after Open: %+v, want clean", rep.Findings)
	}
}

// dirFiles reads every file in dir by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = raw
	}
	return files
}

// TestRecoverInterruptedBoundaryCut is TestRecoverInterruptedTruncation
// for the order a sequence boundary's cut now runs in: sync Σ's segment
// and start the next one, append the DELETIONS record, unlink the cut
// segments, rewrite MANIFEST once. It stages the directory a crash
// leaves after each step that is not the last — and, for DeleteBelow's
// bare record, which takes the same path, a crash between two unlinks.
// The doctor reports only findings its repair resolves, and the repair
// leaves the directory clean and holding only the store's files; a plain
// Open recovers to the durable marker, serves no cut block and every
// live one.
func TestRecoverInterruptedBoundaryCut(t *testing.T) {
	const from, marker = 3, 9
	for _, tc := range []struct {
		name string
		// stage turns the directory after the cut into the crash state,
		// given its files before the cut and after it.
		stage func(t *testing.T, dir string, before, after map[string][]byte)
		bare  bool
	}{
		{"after the DELETIONS append", func(t *testing.T, dir string, before, _ map[string][]byte) {
			restore(t, dir, before, func(name string) bool { return true })
		}, false},
		{"after the unlinks, before the MANIFEST rename", func(t *testing.T, dir string, before, _ map[string][]byte) {
			restore(t, dir, before, func(name string) bool { return name == "MANIFEST" })
		}, false},
		{"with MANIFEST.tmp left behind", func(t *testing.T, dir string, before, after map[string][]byte) {
			restore(t, dir, before, func(name string) bool { return name == "MANIFEST" })
			if err := os.WriteFile(filepath.Join(dir, "MANIFEST.tmp"), after["MANIFEST"], 0o644); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"bare record, after one of its unlinks", func(t *testing.T, dir string, before, after map[string][]byte) {
			// MANIFEST as it was, and every cut segment but the first.
			unlinked := 0
			restore(t, dir, before, func(name string) bool {
				if _, kept := after[name]; kept {
					return name == "MANIFEST"
				}
				unlinked++
				return unlinked > 1
			})
			if unlinked < 2 {
				t.Fatalf("the cut unlinked %d segments; no crash between two to stage", unlinked)
			}
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			staged := make([]string, 2)
			var blocks []*block.Block
			for i := range staged {
				dir := t.TempDir()
				s, err := segment.Open(dir, segment.Options{SegmentBytes: 512})
				if err != nil {
					t.Fatal(err)
				}
				blocks = putSequences(t, s, 12)
				if err := s.DeleteBelowRecord(from, &manifest.Record{NewMarker: from}); err != nil {
					t.Fatal(err)
				}
				before := dirFiles(t, dir)
				if tc.bare {
					segment.CutBare(t, s, marker)
				} else if err := s.DeleteBelowRecord(marker, &manifest.Record{OldMarker: from, NewMarker: marker}); err != nil {
					t.Fatal(err)
				}
				after := dirFiles(t, dir)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				tc.stage(t, dir, before, after)
				staged[i] = dir
			}

			// The doctor, on the first copy.
			rep, err := doctor.Run(staged[0], doctor.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rep.Findings {
				if !f.Repairable {
					t.Errorf("finding %s (%s) is not repairable: %s", f.Code, f.Severity, f.Detail)
				}
			}
			if rep.Marker != marker {
				t.Errorf("doctor's effective marker %d, want %d", rep.Marker, marker)
			}
			rep, err = doctor.Run(staged[0], doctor.Options{Repair: true})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Errorf("after repair: %+v, want clean", rep.Findings)
			}
			storeFiles(t, staged[0])

			// A plain Open, on the second.
			s, err := segment.Open(staged[1], segment.Options{SegmentBytes: 512})
			if err != nil {
				t.Fatalf("Open after the crash: %v", err)
			}
			defer s.Close()
			if m, err := s.Marker(); err != nil || m != marker {
				t.Errorf("marker %d (%v), want %d", m, err, marker)
			}
			for _, want := range blocks {
				got, err := s.GetBlock(want.Header.Number)
				switch {
				case want.Header.Number < marker:
					if !errors.Is(err, segment.ErrNotFound) {
						t.Errorf("cut block %d readable: %v", want.Header.Number, err)
					}
				case err != nil || got.Hash() != want.Hash():
					t.Errorf("live block %d: %v", want.Header.Number, err)
				}
			}
			var streamed []uint64
			for b, err := range s.Stream() {
				if err != nil {
					t.Fatal(err)
				}
				streamed = append(streamed, b.Header.Number)
			}
			if want := []uint64{9, 10, 11}; !slices.Equal(streamed, want) {
				t.Errorf("streamed %v, want %v", streamed, want)
			}
		})
	}
}

// restore writes back, as they were before the cut, the files pick
// names; DELETIONS keeps the record the cut appended.
func restore(t *testing.T, dir string, before map[string][]byte, pick func(name string) bool) {
	t.Helper()
	names := make([]string, 0, len(before))
	for name := range before {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if name == manifest.FileName || !pick(name) {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, name), before[name], 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
