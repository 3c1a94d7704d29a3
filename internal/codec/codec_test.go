package codec

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.Uint64(42)
	e.Uint32(7)
	e.Int64(-13)
	e.Bool(true)
	e.Bool(false)
	e.Byte(0xAB)
	e.Bytes([]byte{1, 2, 3})
	e.String("hello, κόσμε")
	var h Hash
	h[0] = 0xDE
	e.Hash(h)

	d := NewDecoder(e.Data())
	if got := d.Uint64(); got != 42 {
		t.Errorf("Uint64 = %d, want 42", got)
	}
	if got := d.Uint32(); got != 7 {
		t.Errorf("Uint32 = %d, want 7", got)
	}
	if got := d.Int64(); got != -13 {
		t.Errorf("Int64 = %d, want -13", got)
	}
	if got := d.Bool(); !got {
		t.Error("Bool #1 = false, want true")
	}
	if got := d.Bool(); got {
		t.Error("Bool #2 = true, want false")
	}
	if got := d.Byte(); got != 0xAB {
		t.Errorf("Byte = %#x, want 0xAB", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v, want [1 2 3]", got)
	}
	if got := d.ReadString(); got != "hello, κόσμε" {
		t.Errorf("String = %q", got)
	}
	if got := d.Hash(); got != h {
		t.Errorf("Hash = %v, want %v", got, h)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecoderTruncated(t *testing.T) {
	tests := []struct {
		name string
		data []byte
		read func(d *Decoder)
	}{
		{"uint64 short", []byte{1, 2, 3}, func(d *Decoder) { d.Uint64() }},
		{"uint32 short", []byte{1}, func(d *Decoder) { d.Uint32() }},
		{"bytes header short", []byte{0, 0}, func(d *Decoder) { d.Bytes() }},
		{"bytes body short", []byte{0, 0, 0, 9, 1}, func(d *Decoder) { d.Bytes() }},
		{"string body short", []byte{0, 0, 0, 5, 'a'}, func(d *Decoder) { d.ReadString() }},
		{"hash short", make([]byte, 10), func(d *Decoder) { d.Hash() }},
		{"byte empty", nil, func(d *Decoder) { d.Byte() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := NewDecoder(tt.data)
			tt.read(d)
			if !errors.Is(d.Err(), ErrTruncated) {
				t.Errorf("Err = %v, want ErrTruncated", d.Err())
			}
		})
	}
}

func TestDecoderErrorsAreSticky(t *testing.T) {
	d := NewDecoder([]byte{1})
	_ = d.Uint64() // fails
	first := d.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	_ = d.Uint32()
	_ = d.ReadString()
	if d.Err() != first { //nolint:errorlint // identity check is intended
		t.Errorf("error changed after further reads: %v vs %v", d.Err(), first)
	}
}

func TestDecoderTrailing(t *testing.T) {
	d := NewDecoder([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0xFF})
	if got := d.Uint64(); got != 1 {
		t.Fatalf("Uint64 = %d", got)
	}
	if err := d.Finish(); !errors.Is(err, ErrTrailing) {
		t.Errorf("Finish = %v, want ErrTrailing", err)
	}
}

func TestDecoderRejectsInvalidBool(t *testing.T) {
	d := NewDecoder([]byte{2})
	_ = d.Bool()
	if d.Err() == nil {
		t.Error("Bool(2) accepted, want error")
	}
}

func TestDecoderRejectsHugeLengthPrefix(t *testing.T) {
	d := NewDecoder([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	_ = d.Bytes()
	if d.Err() == nil {
		t.Error("huge length prefix accepted, want error")
	}
}

func TestHashConcatLengthSeparation(t *testing.T) {
	a := HashConcat([]byte("ab"), []byte("c"))
	b := HashConcat([]byte("a"), []byte("bc"))
	if a == b {
		t.Error("HashConcat does not separate part boundaries")
	}
	if HashConcat() == HashConcat([]byte{}) {
		t.Error("zero parts and one empty part should differ")
	}
}

func TestHashShortStyle(t *testing.T) {
	h := HashBytes([]byte("x"))
	s := h.Short()
	if len(s) != 5 {
		t.Fatalf("Short length = %d, want 5", len(s))
	}
	if s != strings.ToUpper(s) {
		t.Errorf("Short not upper-cased: %q", s)
	}
}

func TestHashTextRoundTrip(t *testing.T) {
	h := HashBytes([]byte("round trip"))
	text, err := h.MarshalText()
	if err != nil {
		t.Fatalf("MarshalText: %v", err)
	}
	var back Hash
	if err := back.UnmarshalText(text); err != nil {
		t.Fatalf("UnmarshalText: %v", err)
	}
	if back != h {
		t.Errorf("round trip mismatch: %v vs %v", back, h)
	}
	parsed, err := ParseHash(string(text))
	if err != nil || parsed != h {
		t.Errorf("ParseHash = %v, %v", parsed, err)
	}
}

func TestHashUnmarshalErrors(t *testing.T) {
	var h Hash
	if err := h.UnmarshalText([]byte("zz")); err == nil {
		t.Error("accepted invalid hex")
	}
	if err := h.UnmarshalText([]byte("abcd")); err == nil {
		t.Error("accepted short hash")
	}
}

func TestZeroHash(t *testing.T) {
	var h Hash
	if !h.IsZero() {
		t.Error("zero value not IsZero")
	}
	if HashBytes(nil).IsZero() {
		t.Error("hash of empty input reported zero")
	}
}

// Property: every (uint64, bytes, string, bool) tuple round-trips.
func TestQuickRoundTrip(t *testing.T) {
	f := func(u uint64, b []byte, s string, v bool, i int64) bool {
		e := NewEncoder(0)
		e.Uint64(u)
		e.Bytes(b)
		e.String(s)
		e.Bool(v)
		e.Int64(i)
		d := NewDecoder(e.Data())
		gu := d.Uint64()
		gb := d.Bytes()
		gs := d.ReadString()
		gv := d.Bool()
		gi := d.Int64()
		if err := d.Finish(); err != nil {
			return false
		}
		return gu == u && bytes.Equal(gb, b) && gs == s && gv == v && gi == i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: encoding is injective for (bytes, bytes) pairs — distinct
// pairs yield distinct encodings (length prefixes prevent ambiguity).
func TestQuickInjective(t *testing.T) {
	f := func(a1, a2, b1, b2 []byte) bool {
		e1 := NewEncoder(0)
		e1.Bytes(a1)
		e1.Bytes(a2)
		e2 := NewEncoder(0)
		e2.Bytes(b1)
		e2.Bytes(b2)
		same := bytes.Equal(a1, b1) && bytes.Equal(a2, b2)
		return bytes.Equal(e1.Data(), e2.Data()) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecoderBytesCopies(t *testing.T) {
	e := NewEncoder(0)
	e.Bytes([]byte{1, 2, 3})
	data := e.Data()
	d := NewDecoder(data)
	got := d.Bytes()
	data[4] = 99 // mutate the underlying buffer
	if got[0] != 1 {
		t.Error("decoded bytes alias the input buffer")
	}
}

func TestEncoderLen(t *testing.T) {
	e := NewEncoder(8)
	if e.Len() != 0 {
		t.Errorf("fresh encoder Len = %d", e.Len())
	}
	e.Uint32(1)
	if e.Len() != 4 {
		t.Errorf("Len = %d, want 4", e.Len())
	}
}

// TestCounterMatchesEncoder runs every primitive over a buffering and a
// counting encoder: the counter keeps no bytes and reports the same
// length at every step, nested fields included.
func TestCounterMatchesEncoder(t *testing.T) {
	steps := []func(*Encoder){
		func(e *Encoder) { e.Uint64(1 << 40) },
		func(e *Encoder) { e.Uint32(7) },
		func(e *Encoder) { e.Int64(-1) },
		func(e *Encoder) { e.Byte(9) },
		func(e *Encoder) { e.Bool(true) },
		func(e *Encoder) { e.Bytes([]byte("payload")) },
		func(e *Encoder) { e.Bytes(nil) },
		func(e *Encoder) { e.String("owner") },
		func(e *Encoder) { e.Hash(HashBytes([]byte("h"))) },
		func(e *Encoder) {
			outer := e.BeginNested()
			e.String("outer")
			inner := e.BeginNested()
			e.Uint64(2)
			e.EndNested(inner)
			e.EndNested(outer)
		},
	}
	buf, count := NewEncoder(0), NewCounter()
	for i, step := range steps {
		step(buf)
		step(count)
		if buf.Len() != count.Len() {
			t.Fatalf("after step %d: encoder holds %d bytes, counter says %d", i, buf.Len(), count.Len())
		}
	}
	if len(count.Data()) != 0 {
		t.Error("counting encoder kept bytes")
	}
	count.Reset()
	if count.Len() != 0 {
		t.Errorf("Len after Reset = %d", count.Len())
	}
	// The nested field reads back as one length-prefixed view.
	d := NewDecoder(buf.Data()[buf.Len()-(4+4+5+4+8):])
	nested := NewDecoder(d.View())
	if s := nested.ReadString(); s != "outer" {
		t.Errorf("nested string = %q", s)
	}
	if v := NewDecoder(nested.View()).Uint64(); v != 2 || nested.Finish() != nil || d.Finish() != nil {
		t.Errorf("nested value = %d, finish %v / %v", v, nested.Finish(), d.Finish())
	}
}

func TestEncoderSumMatchesHashBytes(t *testing.T) {
	e := NewEncoder(0)
	e.String("payload")
	if e.Sum() != HashBytes(e.Data()) {
		t.Error("Sum differs from HashBytes(Data)")
	}
}
