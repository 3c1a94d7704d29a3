// Package codec implements the canonical, deterministic binary encoding
// used for every hashed structure in the system.
//
// The paper's summary blocks must be bit-identical across independently
// operating nodes (§IV-B), which requires that every encoded structure has
// exactly one serialization. The codec therefore uses fixed-endian,
// length-prefixed primitives with no optional or implementation-defined
// fields: big-endian fixed-width integers and uint32-length-prefixed byte
// strings.
package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
)

// HashSize is the size in bytes of all content hashes (SHA-256).
const HashSize = 32

// Hash is a SHA-256 content hash.
type Hash [HashSize]byte

// ZeroHash is the all-zero hash, used as "no hash" sentinel.
var ZeroHash Hash

// HashBytes returns the SHA-256 hash of b.
func HashBytes(b []byte) Hash {
	return sha256.Sum256(b)
}

// Hex returns the full lowercase hex encoding of the hash.
func (h Hash) Hex() string { return hex.EncodeToString(h[:]) }

// Short returns the first five hex characters, upper-cased, matching the
// abbreviated hash style of the paper's console output (e.g. "DEADB").
func (h Hash) Short() string {
	s := hex.EncodeToString(h[:3])
	out := make([]byte, 5)
	for i := 0; i < 5; i++ {
		c := s[i]
		if c >= 'a' && c <= 'f' {
			c -= 'a' - 'A'
		}
		out[i] = c
	}
	return string(out)
}

// IsZero reports whether h is the zero hash.
func (h Hash) IsZero() bool { return h == ZeroHash }

// String implements fmt.Stringer using the short form.
func (h Hash) String() string { return h.Short() }

// MarshalText implements encoding.TextMarshaler (full hex).
func (h Hash) MarshalText() ([]byte, error) {
	return []byte(h.Hex()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (h *Hash) UnmarshalText(text []byte) error {
	b, err := hex.DecodeString(string(text))
	if err != nil {
		return fmt.Errorf("codec: decode hash hex: %w", err)
	}
	if len(b) != HashSize {
		return fmt.Errorf("codec: hash length %d, want %d", len(b), HashSize)
	}
	copy(h[:], b)
	return nil
}

// Encoder accumulates a canonical binary encoding.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
	// counting encoders (NewCounter) keep no bytes: every primitive only
	// adds its encoded width to n.
	counting bool
	n        int
}

// NewEncoder returns an encoder with the given initial capacity hint.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// NewEncoderBuf returns an encoder that appends to buf, reusing its
// capacity — the bring-your-own-buffer constructor for pooled encode
// paths. Data returns buf extended with everything encoded.
func NewEncoderBuf(buf []byte) *Encoder {
	return &Encoder{buf: buf}
}

// NewCounter returns an encoder that discards what it is given and only
// counts it: Len reports the size the same calls would have encoded to,
// Data stays empty. Running a structure's encode function over a counter
// sizes it exactly, with no buffer.
func NewCounter() *Encoder {
	return &Encoder{counting: true}
}

// Uint64 appends v as 8 big-endian bytes.
func (e *Encoder) Uint64(v uint64) {
	if e.counting {
		e.n += 8
		return
	}
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Uint32 appends v as 4 big-endian bytes.
func (e *Encoder) Uint32(v uint32) {
	if e.counting {
		e.n += 4
		return
	}
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Byte appends a single raw byte.
func (e *Encoder) Byte(b byte) {
	if e.counting {
		e.n++
		return
	}
	e.buf = append(e.buf, b)
}

// Bool appends 0x01 for true and 0x00 for false.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Bytes appends b with a uint32 length prefix.
func (e *Encoder) Bytes(b []byte) {
	e.Uint32(uint32(len(b)))
	if e.counting {
		e.n += len(b)
		return
	}
	e.buf = append(e.buf, b...)
}

// BeginNested opens a uint32-length-prefixed field whose content the
// caller encodes straight into this encoder, until EndNested(at) with
// the returned position — the in-place form of Bytes(sub.Encode()) for
// nested structures: the length prefix is reserved up front and
// backfilled at the end, so the nested encoding never materializes in a
// separate allocation. The resulting bytes are identical to Bytes over
// the separately encoded content. (A begin/end pair and not a callback:
// an encoder handed to a function value escapes to the heap.)
func (e *Encoder) BeginNested() (at int) {
	if e.counting {
		e.n += 4
		return 0
	}
	at = len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0)
	return at
}

// EndNested closes the field opened by the BeginNested that returned at.
func (e *Encoder) EndNested(at int) {
	if e.counting {
		return
	}
	binary.BigEndian.PutUint32(e.buf[at:at+4], uint32(len(e.buf)-at-4))
}

// String appends s with a uint32 length prefix.
func (e *Encoder) String(s string) {
	e.Uint32(uint32(len(s)))
	if e.counting {
		e.n += len(s)
		return
	}
	e.buf = append(e.buf, s...)
}

// Hash appends a fixed-width hash with no length prefix.
func (e *Encoder) Hash(h Hash) {
	if e.counting {
		e.n += HashSize
		return
	}
	e.buf = append(e.buf, h[:]...)
}

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) + e.n }

// Data returns the encoded bytes. The returned slice aliases the
// encoder's internal buffer; callers must not mutate it.
func (e *Encoder) Data() []byte { return e.buf }

// ErrTruncated is returned by Decoder methods when the input is shorter
// than the requested field.
var ErrTruncated = errors.New("codec: truncated input")

// ErrTrailing is returned by Decoder.Finish when input remains.
var ErrTrailing = errors.New("codec: trailing bytes after decode")

// maxFieldLen bounds length prefixes so a corrupted prefix cannot force a
// huge allocation.
const maxFieldLen = 1 << 30

// Decoder reads a canonical binary encoding. Errors are sticky: after the
// first failure all subsequent reads return zero values and Err reports
// the original error.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder returns a decoder over data. The decoder does not copy data.
func NewDecoder(data []byte) *Decoder {
	return &Decoder{data: data}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.data) {
		d.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, d.off, len(d.data))
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// Uint64 reads 8 big-endian bytes.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Uint32 reads 4 big-endian bytes.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Byte reads a single raw byte.
func (d *Decoder) Byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte and rejects values other than 0 and 1.
func (d *Decoder) Bool() bool {
	b := d.Byte()
	if d.err == nil && b > 1 {
		d.err = fmt.Errorf("codec: invalid bool byte %#x", b)
		return false
	}
	return b == 1
}

// Bytes reads a uint32 length prefix followed by that many bytes.
// The returned slice is a copy and safe to retain.
func (d *Decoder) Bytes() []byte {
	b := d.View()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// View reads a uint32 length prefix followed by that many bytes,
// returning a view into the decoder's input with no copy. The view
// aliases (and keeps alive) the decoded data; use it for nested
// structures that are immediately re-decoded — the inner decoder copies
// whatever it retains — and fall back to Bytes for fields stored as-is.
func (d *Decoder) View() []byte {
	n := d.Uint32()
	if d.err != nil {
		return nil
	}
	if n > maxFieldLen {
		d.err = fmt.Errorf("codec: field length %d exceeds limit", n)
		return nil
	}
	return d.take(int(n))
}

// ReadString reads a uint32 length prefix followed by that many bytes.
// (Named ReadString rather than String so Decoder is not a fmt.Stringer.)
func (d *Decoder) ReadString() string {
	n := d.Uint32()
	if d.err != nil {
		return ""
	}
	if n > maxFieldLen {
		d.err = fmt.Errorf("codec: field length %d exceeds limit", n)
		return ""
	}
	b := d.take(int(n))
	return string(b)
}

// Hash reads a fixed-width hash.
func (d *Decoder) Hash() Hash {
	var h Hash
	b := d.take(HashSize)
	if b != nil {
		copy(h[:], b)
	}
	return h
}

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.data) - d.off }

// Err returns the first error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Finish returns an error if decoding failed or bytes remain unread.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(d.data)-d.off)
	}
	return nil
}
