package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/identity"
)

// Fuzz target for the segment-file scanner and the store's recovery
// path: a segment left in any state by a crash (or an attacker with
// disk access) must scan without panicking, and opening a directory
// around it must either fail cleanly or yield a usable store.
// Regenerate the checked-in corpora with:
//
//	SELDEL_GEN_FUZZ_CORPUS=1 go test ./internal/store/segment/ -run TestGenerateFuzzCorpora

// frameRecord wraps payload in the segment record framing: block
// number, length, payload CRC, payload.
func frameRecord(num uint64, payload []byte) []byte {
	buf := make([]byte, recHeaderSize, recHeaderSize+len(payload))
	binary.LittleEndian.PutUint64(buf[0:8], num)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[12:16], crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// segmentSeeds builds whole-file corpora: a clean three-block segment
// built from real block encodings, plus torn and corrupted variants.
func segmentSeeds() [][]byte {
	kp := identity.Deterministic("alpha", "segment-fuzz")
	var clean bytes.Buffer
	clean.WriteString(segMagic)
	prevHash := block.GenesisPrevHash
	prevTime := uint64(0)
	for num := uint64(0); num < 3; num++ {
		e := block.NewData("alpha", []byte(fmt.Sprintf("payload-%d", num))).Sign(kp)
		b := block.NewNormal(num, prevTime+1, prevHash, []*block.Entry{e})
		clean.Write(frameRecord(num, b.Encode()))
		prevHash, prevTime = b.Hash(), b.Header.Time
	}
	full := clean.Bytes()

	torn := append([]byte(nil), full...)
	torn = torn[:len(torn)-5] // crash mid-payload of the last record

	corrupt := append([]byte(nil), full...)
	corrupt[len(segMagic)+recHeaderSize+2] ^= 0xff // flip a payload byte: CRC breaks

	badLen := append([]byte(nil), full[:len(segMagic)]...)
	badLen = append(badLen, frameRecord(0, []byte("x"))...)
	binary.LittleEndian.PutUint32(badLen[len(segMagic)+8:], 1<<30) // absurd length

	return [][]byte{
		full,
		torn,
		corrupt,
		badLen,
		[]byte(segMagic),        // header only
		[]byte("not a segment"), // foreign file
		nil,                     // empty file
		full[:len(segMagic)-2],  // truncated magic
	}
}

// recordSeeds builds single-record corpora for the shared record
// parser: a clean record from a real block encoding, plus every way a
// record can be short, lying, or corrupt.
func recordSeeds() [][]byte {
	kp := identity.Deterministic("alpha", "segment-fuzz")
	e := block.NewData("alpha", []byte("record-fuzz-payload")).Sign(kp)
	b := block.NewNormal(7, 1, block.GenesisPrevHash, []*block.Entry{e})
	clean := frameRecord(7, b.Encode())

	badCRC := append([]byte(nil), clean...)
	badCRC[len(badCRC)-1] ^= 0xff

	badLen := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint32(badLen[8:12], uint32(len(badLen))) // claims more than present

	hugeLen := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint32(hugeLen[8:12], 1<<30)

	return [][]byte{
		clean,
		append(append([]byte(nil), clean...), clean...), // two records back to back
		clean[:recHeaderSize-1],                         // truncated header
		clean[:len(clean)-3],                            // truncated payload
		badCRC,
		badLen,
		hugeLen,
		frameRecord(0, nil), // empty payload is a valid record
		nil,
	}
}

func FuzzParseRecord(f *testing.F) {
	for _, s := range recordSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		num, payload, span, ok := parseRecord(raw)
		if !ok {
			if span != 0 || payload != nil {
				t.Fatalf("failed parse leaked span=%d payload=%v", span, payload != nil)
			}
			return
		}
		if span < recHeaderSize || span > len(raw) {
			t.Fatalf("span %d outside record bounds (%d bytes in)", span, len(raw))
		}
		if len(payload) != span-recHeaderSize {
			t.Fatalf("payload %d bytes, span %d", len(payload), span)
		}
		// A record the parser accepts must round-trip through the
		// writer's framing bit for bit — the append path, the rewrite,
		// and the scan share one format.
		if got := frameRecord(num, payload); !bytes.Equal(got, raw[:span]) {
			t.Fatalf("re-framed record differs from parsed bytes")
		}
		// A payload that decodes is a canonical block encoding: the
		// chain's byte accounting (EncodedSize, a counting pass) must
		// size it as exactly the bytes on disk.
		if b, err := block.DecodeBlock(payload); err == nil && b.EncodedSize() != len(payload) {
			t.Fatalf("EncodedSize %d for a %d-byte block encoding", b.EncodedSize(), len(payload))
		}
	})
}

func FuzzScanSegmentFile(f *testing.F) {
	for _, s := range segmentSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "seg-00000000.seg")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		si, err := scanSegmentFile(0, path, func(n int) []byte { return make([]byte, n) })
		if err != nil {
			t.Fatalf("scan of a readable file errored: %v", err)
		}
		if si.SizeBytes != int64(len(raw)) {
			t.Fatalf("scan reports %d bytes, file has %d", si.SizeBytes, len(raw))
		}
		if si.Records > 0 && si.First > si.Last {
			t.Fatalf("inverted live range %d..%d", si.First, si.Last)
		}
		if len(raw) > 0 && si.Records == 0 && !si.Torn {
			// Non-empty bytes that produced no records must be flagged
			// (the file is either foreign or damaged)...
			if string(raw) != segMagic {
				t.Fatalf("%d undecodable bytes not reported as torn", len(raw))
			}
		}
		// The recovery path must cope with the same bytes: open the
		// directory around the segment, then close whatever came up.
		s, err := Open(dir, Options{})
		if err != nil {
			return // a clean refusal is acceptable; a panic is not
		}
		s.Close()
	})
}

// TestGenerateFuzzCorpora rewrites the checked-in seed corpora. Guarded
// by an environment variable so a normal test run never touches them.
func TestGenerateFuzzCorpora(t *testing.T) {
	if os.Getenv("SELDEL_GEN_FUZZ_CORPUS") == "" {
		t.Skip("set SELDEL_GEN_FUZZ_CORPUS=1 to regenerate fuzz corpora")
	}
	writeFuzzCorpus(t, "FuzzScanSegmentFile", segmentSeeds())
	writeFuzzCorpus(t, "FuzzParseRecord", recordSeeds())
}

func writeFuzzCorpus(t *testing.T, target string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Seeds the generators no longer make go; crashers committed under
	// their own names stay.
	stale, err := filepath.Glob(filepath.Join(dir, "seed-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range stale {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
