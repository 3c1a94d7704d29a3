// Package manifest implements the durable deletion manifest: an
// append-only, CRC-checked log of deletion records that survives the
// blocks it describes.
//
// The paper's scheme erases chain prefixes physically (§IV-C/D), which
// is exactly what makes erasure unauditable after the fact: once the
// segment store unlinks a cut prefix, a bare truncation marker cannot
// answer "what was deleted, when, by whom, under whose co-signatures",
// nor arm a rejoining replica against a peer replaying the deleted
// blocks. The manifest closes that gap. Every executed truncation
// appends one Record — height range, per-entry tombstones with the
// requester identity and co-signer set, and the hash of the summary
// block that replaced the cut — written durably in the same critical
// sequence as the marker shift, before the blocks are unlinked.
//
// The file format is deliberately line-oriented (one record per line,
// in the style of beads' deletions manifest) rather than
// length-prefixed binary. A line is an 8-hex-digit CRC-32 of the body,
// a space, the body, and a newline; the body is the standard base64 of
// the record's canonical internal/codec encoding (Record.Encode), so it
// never contains a newline. A torn or corrupted line therefore never
// poisons the records after it: recovery resynchronizes on the next
// newline. Open skips corrupt interior lines with warnings and
// truncates a torn tail, so a crash mid-append costs at most the record
// being written — which the store will regenerate, since the marker
// shift it describes did not become durable either. A line whose CRC
// holds but whose body is a JSON object is the retired format; it
// refuses the whole log (ErrRetiredFormat) instead of being skipped,
// which would silently drop its tombstones.
package manifest

import (
	"bytes"
	"cmp"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

const (
	// FileName is the manifest log file inside a store directory.
	FileName = "DELETIONS"
	// ArchiveName holds records moved aside by `seldel doctor -archive`.
	ArchiveName = "DELETIONS.archive"
)

// Errors returned by the manifest log.
var (
	// ErrBadLine is returned when a single line fails CRC or decode
	// validation. Open converts it into a warning; DecodeLine returns it.
	ErrBadLine = errors.New("manifest: corrupt record line")
	// ErrRetiredFormat is returned for a line whose CRC holds but whose
	// body is a JSON object — records as they were stored before the
	// canonical encoding. No reader for that format remains, and
	// skipping its lines as corrupt would drop their tombstones and
	// lower the resurrection floor, so Open, Read and ReadArchive
	// refuse the whole file.
	ErrRetiredFormat = errors.New("manifest: record in the retired JSON format")
	// ErrClosed is returned for operations on a closed log.
	ErrClosed = errors.New("manifest: log is closed")
	// ErrSeqOrder is returned when an appended record would move the
	// sequence number backwards.
	ErrSeqOrder = errors.New("manifest: record sequence out of order")
)

// b64 decodes line bodies, refusing nonzero padding bits; decodeLine
// refuses the ignored CR/LF by length.
var b64 = base64.StdEncoding.Strict()

// EncodeLine renders one record as its durable line: an 8-hex-digit
// CRC-32 (IEEE) of the body, a space, the body — the standard base64 of
// Encode — and a newline.
func EncodeLine(r *Record) []byte {
	raw := r.Encode()
	n := b64.EncodedLen(len(raw))
	line := make([]byte, 9+n+1)
	body := line[9 : 9+n]
	b64.Encode(body, raw)
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(body))
	hex.Encode(line[:8], sum[:])
	line[8] = ' '
	line[len(line)-1] = '\n'
	return line
}

// DecodeLine parses one line (without requiring the trailing newline)
// back into a record, verifying the CRC. Only EncodeLine's exact bytes
// decode: re-encoding a decoded line reproduces it.
func DecodeLine(line []byte) (*Record, error) {
	var buf []byte
	r, err := decodeLine(line, &buf)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// decodeLine is DecodeLine decoding the base64 body into *buf, grown as
// needed and kept for the next line; nothing decoded aliases it.
func decodeLine(line []byte, buf *[]byte) (Record, error) {
	line = bytes.TrimSuffix(line, []byte("\n"))
	if len(line) < 10 || line[8] != ' ' {
		return Record{}, fmt.Errorf("%w: missing crc prefix", ErrBadLine)
	}
	var sum [4]byte
	if _, err := hex.Decode(sum[:], line[:8]); err != nil {
		return Record{}, fmt.Errorf("%w: bad crc prefix: %v", ErrBadLine, err)
	}
	var lower [8]byte
	hex.Encode(lower[:], sum[:])
	if lower != [8]byte(line[:8]) {
		return Record{}, fmt.Errorf("%w: crc prefix %q is not lower-case hex", ErrBadLine, line[:8])
	}
	body := line[9:]
	if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(sum[:]); got != want {
		return Record{}, fmt.Errorf("%w: crc mismatch (have %08x, want %08x)", ErrBadLine, got, want)
	}
	if body[0] == '{' {
		return Record{}, ErrRetiredFormat
	}
	if n := b64.DecodedLen(len(body)); cap(*buf) < n {
		*buf = make([]byte, n)
	}
	n, err := b64.Decode((*buf)[:cap(*buf)], body)
	if err == nil && b64.EncodedLen(n) != len(body) {
		err = errors.New("line break inside the body")
	}
	if err != nil {
		return Record{}, fmt.Errorf("%w: base64: %v", ErrBadLine, err)
	}
	r, err := decodeRecord((*buf)[:n])
	if err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrBadLine, err)
	}
	if r.NewMarker < r.OldMarker {
		return Record{}, fmt.Errorf("%w: inverted marker range [%d,%d)", ErrBadLine, r.OldMarker, r.NewMarker)
	}
	return r, nil
}

// logFile is one parse of a file in the durable line format.
type logFile struct {
	// recs holds the readable records, oldest first by sequence number.
	recs []Record
	// warnings name a torn tail — the torn bytes after the last newline,
	// never parsed — and each corrupt line skipped.
	warnings []string
	torn     int
	// misordered names each line kept although its sequence number is
	// not above every line before it; nextSeq is one past the highest.
	misordered []string
	nextSeq    uint64
}

// parse decodes data one complete line at a time, what naming a line in
// warnings ("line", "archive line"). A corrupt line is skipped with a
// warning and the next newline resynchronizes; a line in the retired
// format fails the whole parse.
func parse(data []byte, what string) (logFile, error) {
	f := logFile{nextSeq: 1}
	keep := bytes.LastIndexByte(data, '\n') + 1
	if f.torn = len(data) - keep; f.torn > 0 {
		f.warnings = append(f.warnings, fmt.Sprintf("torn tail (%d bytes after last complete record)", f.torn))
	}
	f.recs = make([]Record, 0, bytes.Count(data[:keep], []byte("\n")))
	var buf []byte
	for lineNo, rest := 1, data[:keep]; len(rest) > 0; lineNo++ {
		i := bytes.IndexByte(rest, '\n')
		line := rest[:i]
		rest = rest[i+1:]
		if len(line) == 0 {
			continue
		}
		r, err := decodeLine(line, &buf)
		if errors.Is(err, ErrRetiredFormat) {
			return logFile{}, fmt.Errorf("%w at %s %d", err, what, lineNo)
		}
		if err != nil {
			f.warnings = append(f.warnings, fmt.Sprintf("%s %d: %v (skipped)", what, lineNo, err))
			continue
		}
		if r.Seq < f.nextSeq {
			f.misordered = append(f.misordered, fmt.Sprintf(
				"%s %d: sequence %d not after %d (kept)", what, lineNo, r.Seq, f.nextSeq-1))
		} else {
			f.nextSeq = r.Seq + 1
		}
		f.recs = append(f.recs, r)
	}
	slices.SortStableFunc(f.recs, func(a, b Record) int { return cmp.Compare(a.Seq, b.Seq) })
	return f, nil
}

// readFile parses the log at path without mutating it. A missing file
// holds no records.
func readFile(path, what string) ([]Record, []string, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("manifest: read %s: %w", path, err)
	}
	f, err := parse(data, what)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.recs, f.warnings, nil
}

// Read parses the manifest log in dir without mutating it: no torn-tail
// truncation, no append handle. This is the inspection path (`seldel
// doctor` in check mode must not repair as a side effect of looking).
// A missing log yields an empty slice. Records are returned oldest
// first by sequence number.
func Read(dir string) ([]Record, []string, error) {
	return readFile(filepath.Join(dir, FileName), "line")
}

// Log is the append-only deletion-record log backing one store
// directory. All methods are safe for concurrent use.
type Log struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	recs     []Record
	warnings []string
	nextSeq  uint64
	closed   bool
}

// Open loads (or creates) the manifest log in dir. Corrupt interior
// lines are skipped and reported via Warnings, as are records whose
// sequence number does not advance; a torn tail — bytes after the last
// complete line, the signature of a crash mid-append — is reported and
// truncated away so future appends start on a line boundary.
func Open(dir string) (*Log, error) {
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("manifest: read %s: %w", path, err)
	}
	parsed, err := parse(data, "line")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if parsed.torn > 0 {
		if err := os.WriteFile(path+".tmp", data[:len(data)-parsed.torn], 0o644); err != nil {
			return nil, fmt.Errorf("manifest: rewrite torn log: %w", err)
		}
		if err := os.Rename(path+".tmp", path); err != nil {
			return nil, fmt.Errorf("manifest: rewrite torn log: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("manifest: open %s: %w", path, err)
	}
	return &Log{
		path:     path,
		f:        f,
		recs:     parsed.recs,
		warnings: append(parsed.warnings, parsed.misordered...),
		nextSeq:  parsed.nextSeq,
	}, nil
}

// Append assigns the next sequence number to r (unless the caller
// pre-assigned a higher one), writes it durably (write + fsync), and
// returns the record as stored.
func (l *Log) Append(r Record) (Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Record{}, ErrClosed
	}
	if r.Seq == 0 {
		r.Seq = l.nextSeq
	} else if r.Seq < l.nextSeq {
		return Record{}, fmt.Errorf("%w: %d < %d", ErrSeqOrder, r.Seq, l.nextSeq)
	}
	if _, err := l.f.Write(EncodeLine(&r)); err != nil {
		return Record{}, fmt.Errorf("manifest: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return Record{}, fmt.Errorf("manifest: sync: %w", err)
	}
	l.recs = append(l.recs, r.clone())
	l.nextSeq = r.Seq + 1
	return r, nil
}

// Records returns a deep copy of all readable records, oldest first.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.recs))
	for i, r := range l.recs {
		out[i] = r.clone()
	}
	return out
}

// Head returns the most recent record, if any.
func (l *Log) Head() (Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) == 0 {
		return Record{}, false
	}
	return l.recs[len(l.recs)-1].clone(), true
}

// Len returns the number of readable records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Warnings returns recovery diagnostics accumulated by Open (corrupt
// lines skipped, torn tail truncated). Empty for a clean log.
func (l *Log) Warnings() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.warnings...)
}

// Rewrite atomically replaces the log contents with recs (doctor's
// archive path: the head record stays, applied history moves aside).
// The in-memory view and next sequence number follow the new contents;
// the sequence counter never moves backwards.
func (l *Log) Rewrite(recs []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	var buf bytes.Buffer
	for i := range recs {
		buf.Write(EncodeLine(&recs[i]))
	}
	tmp := l.path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("manifest: rewrite: %w", err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return fmt.Errorf("manifest: rewrite: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("manifest: rewrite: %w", err)
	}
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("manifest: reopen after rewrite: %w", err)
	}
	l.f = f
	l.recs = make([]Record, len(recs))
	for i, r := range recs {
		l.recs[i] = r.clone()
		if r.Seq >= l.nextSeq {
			l.nextSeq = r.Seq + 1
		}
	}
	return nil
}

// Close releases the underlying file handle.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}

// AppendToArchive appends recs to the archive file in dir, creating it
// if needed. Archived records use the same durable line format, so the
// archive remains readable with DecodeLine.
func AppendToArchive(dir string, recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	f, err := os.OpenFile(filepath.Join(dir, ArchiveName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("manifest: open archive: %w", err)
	}
	defer f.Close()
	for i := range recs {
		if _, err := f.Write(EncodeLine(&recs[i])); err != nil {
			return fmt.Errorf("manifest: append archive: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("manifest: sync archive: %w", err)
	}
	return nil
}

// ReadArchive loads the archived records in dir, oldest first. A
// missing archive yields an empty slice.
func ReadArchive(dir string) ([]Record, []string, error) {
	return readFile(filepath.Join(dir, ArchiveName), "archive line")
}
