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
	kp := identity.Deterministic("alpha", "segment-dir-test")
	var blocks []*block.Block
	prevHash := block.GenesisPrevHash
	for num := uint64(0); num < 24; num++ {
		// A summary block Σ ends every third slot, as a chain with
		// SequenceLength 3 seals it: markers 6, 12 and 15 are sequence
		// starts.
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
