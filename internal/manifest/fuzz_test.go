package manifest

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/seldel/seldel/internal/block"
)

// Fuzz targets for the manifest's durable line format and its recovery
// path: arbitrary file contents must never panic Open, and whatever
// Open salvages must leave a log that still accepts appends — the
// property the whole audit trail rests on after a crash. Regenerate the
// checked-in corpora with:
//
//	SELDEL_GEN_FUZZ_CORPUS=1 go test ./internal/manifest/ -run TestGenerateFuzzCorpora

func lineSeeds() [][]byte {
	rec := &Record{
		Seq:          3,
		OldMarker:    6,
		NewMarker:    9,
		SummaryBlock: 9,
		Time:         41,
		Tombstones: []Tombstone{{
			Target:        block.Ref{Block: 7, Entry: 1},
			Requester:     "alice",
			RequestRef:    block.Ref{Block: 8, Entry: 0},
			MarkedAtBlock: 8,
			CoSigners:     []CoSigner{{Name: "bob", Signature: []byte{1, 2, 3}}},
		}},
	}
	valid := EncodeLine(rec)
	// CRC mismatch: body edited after the prefix was computed.
	tampered := append([]byte(nil), valid...)
	tampered[len(tampered)/2] ^= 0x20
	return [][]byte{
		valid,
		tampered,
		valid[:len(valid)/2],            // torn mid-record
		[]byte("deadbeef not-base64\n"), // CRC prefix, garbage body
		[]byte("zzzzzzzz {}\n"),         // malformed CRC prefix
		[]byte("00000000 AAAA"),         // wrong CRC for the body
		append(append([]byte(nil), valid...), 'x'), // trailing data
		[]byte{},                       //
		bytes.Repeat([]byte{0xff}, 24), // binary noise
		EncodeLine(&Record{Seq: 1, OldMarker: 9, NewMarker: 3}), // valid CRC, inverted marker range
		retiredLine(rec),                           // valid CRC, the retired JSON body
		frameLine(rec.Encode()[:40]),               // valid CRC, truncated record
		frameLine(append(rec.Encode(), 0)),         // valid CRC, trailing record bytes
		frameLine(bytes.Repeat([]byte{0xff}, 140)), // valid CRC, every count huge
	}
}

// frameLine wraps raw bytes, whatever they hold, in a line with a
// valid CRC, so a seed reaches the record decoder.
func frameLine(raw []byte) []byte {
	body := b64.EncodeToString(raw)
	return fmt.Appendf(nil, "%08x %s\n", crc32.ChecksumIEEE([]byte(body)), body)
}

// FuzzDecodeLine: whatever decodes is exactly what EncodeLine writes —
// re-encoding reproduces the input byte for byte (newline added) and
// decodes to an equal record.
func FuzzDecodeLine(f *testing.F) {
	for _, s := range lineSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := DecodeLine(raw)
		if err != nil {
			return
		}
		if r.NewMarker < r.OldMarker {
			t.Fatalf("accepted inverted range [%d,%d)", r.OldMarker, r.NewMarker)
		}
		line := EncodeLine(r)
		nl := []byte("\n")
		if !bytes.Equal(bytes.TrimSuffix(line, nl), bytes.TrimSuffix(raw, nl)) {
			t.Fatalf("re-encoding changed the line:\n got %q\nwant %q", line, raw)
		}
		rt, err := DecodeLine(line)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if !reflect.DeepEqual(rt, r) {
			t.Fatalf("round trip changed record: %+v != %+v", rt, r)
		}
	})
}

// FuzzOpenRecovery feeds arbitrary bytes to the log's crash-recovery
// path as if they were a DELETIONS file left by a dead process.
func FuzzOpenRecovery(f *testing.F) {
	for _, s := range logSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, FileName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir)
		if err != nil {
			return // unreadable is acceptable; panicking is not
		}
		defer l.Close()
		// Whatever was salvaged, the log must still take appends and
		// survive a clean reopen with the appended record intact.
		before := l.Len()
		stored, err := l.Append(Record{OldMarker: 0, NewMarker: 1})
		if err != nil {
			t.Fatalf("recovered log rejects appends: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen after recovery+append: %v", err)
		}
		defer l2.Close()
		if l2.Len() != before+1 {
			t.Fatalf("reopen sees %d records, want %d", l2.Len(), before+1)
		}
		if head, ok := l2.Head(); !ok || head.Seq != stored.Seq {
			t.Fatalf("appended record lost across reopen: %+v ok=%v", head, ok)
		}
	})
}

// logSeeds builds whole-file corpora: multi-record logs with clean,
// torn, interleaved-corruption and retired-format shapes.
func logSeeds() [][]byte {
	var clean bytes.Buffer
	for seq := uint64(1); seq <= 3; seq++ {
		clean.Write(EncodeLine(&Record{Seq: seq, OldMarker: (seq - 1) * 3, NewMarker: seq * 3}))
	}
	full := clean.Bytes()
	next := EncodeLine(&Record{Seq: 4, OldMarker: 9, NewMarker: 12})
	torn := append(append([]byte(nil), full...), next[:len(next)/2]...)
	var holed bytes.Buffer
	holed.Write(full[:len(full)/3])
	holed.WriteString("garbage line\n")
	holed.Write(full[len(full)/3:])
	return [][]byte{
		full,
		torn,
		holed.Bytes(),
		append(append([]byte(nil), full...), retiredLine(&Record{Seq: 4, OldMarker: 9, NewMarker: 12})...),
		nil,
		[]byte("\n\n\n"),
		bytes.Repeat([]byte{0x00}, 64),
	}
}

// TestGenerateFuzzCorpora rewrites the checked-in seed corpora. Guarded
// by an environment variable so a normal test run never touches them.
func TestGenerateFuzzCorpora(t *testing.T) {
	if os.Getenv("SELDEL_GEN_FUZZ_CORPUS") == "" {
		t.Skip("set SELDEL_GEN_FUZZ_CORPUS=1 to regenerate fuzz corpora")
	}
	for name, seeds := range map[string][][]byte{
		"FuzzDecodeLine":   lineSeeds(),
		"FuzzOpenRecovery": logSeeds(),
	} {
		writeFuzzCorpus(t, name, seeds)
	}
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
