package schema

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"testing/quick"
)

const loginSchema = `
# Login audit schema (paper §V evaluation scenario).
name: login_event
doc: "terminal login records"
fields:
  - name: user
    type: string
    required: true
    max_length: 64
  - name: terminal
    type: string
    required: true
  - name: success
    type: bool
  - name: at
    type: timestamp
`

func TestParseLoginSchema(t *testing.T) {
	s, err := Parse(loginSchema)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Name() != "login_event" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.Doc() != "terminal login records" {
		t.Errorf("Doc = %q", s.Doc())
	}
	fields := s.Fields()
	if len(fields) != 4 {
		t.Fatalf("Fields = %d, want 4", len(fields))
	}
	user, ok := s.Field("user")
	if !ok || user.Type != TypeString || !user.Required || user.MaxLength != 64 {
		t.Errorf("user field = %+v, %v", user, ok)
	}
	success, ok := s.Field("success")
	if !ok || success.Type != TypeBool || success.Required {
		t.Errorf("success field = %+v, %v", success, ok)
	}
}

func TestValidate(t *testing.T) {
	s, err := Parse(loginSchema)
	if err != nil {
		t.Fatal(err)
	}
	valid := Record{
		"user":     String("ALPHA"),
		"terminal": String("tty1"),
		"success":  Bool(true),
		"at":       Timestamp(42),
	}
	if err := s.Validate(valid); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}

	tests := []struct {
		name string
		rec  Record
		want error
	}{
		{
			"missing required",
			Record{"user": String("ALPHA")},
			ErrMissingField,
		},
		{
			"unknown field",
			Record{"user": String("A"), "terminal": String("t"), "extra": Int(1)},
			ErrUnknownField,
		},
		{
			"type mismatch",
			Record{"user": Int(3), "terminal": String("t")},
			ErrTypeMismatch,
		},
		{
			"too long",
			Record{"user": String(string(make([]byte, 100))), "terminal": String("t")},
			ErrLengthExceeds,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := s.Validate(tt.rec); !errors.Is(err, tt.want) {
				t.Errorf("Validate = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestOptionalFieldsMayBeAbsent(t *testing.T) {
	s, err := Parse(loginSchema)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{"user": String("BRAVO"), "terminal": String("tty2")}
	if err := s.Validate(rec); err != nil {
		t.Errorf("record without optional fields rejected: %v", err)
	}
}

func TestNewRejectsBadSchemas(t *testing.T) {
	cases := []struct {
		name   string
		make   func() (*Schema, error)
		wanted error
	}{
		{"empty name", func() (*Schema, error) { return New("", Field{Name: "a", Type: TypeInt}) }, ErrBadSchema},
		{"no fields", func() (*Schema, error) { return New("x") }, ErrBadSchema},
		{"empty field name", func() (*Schema, error) { return New("x", Field{Type: TypeInt}) }, ErrBadSchema},
		{"bad type", func() (*Schema, error) { return New("x", Field{Name: "a", Type: Type(77)}) }, ErrBadSchema},
		{"dup field", func() (*Schema, error) {
			return New("x", Field{Name: "a", Type: TypeInt}, Field{Name: "a", Type: TypeInt})
		}, ErrBadSchema},
		{"max_length on int", func() (*Schema, error) {
			return New("x", Field{Name: "a", Type: TypeInt, MaxLength: 4})
		}, ErrBadSchema},
		{"negative max_length", func() (*Schema, error) {
			return New("x", Field{Name: "a", Type: TypeString, MaxLength: -1})
		}, ErrBadSchema},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.make(); !errors.Is(err, tt.wanted) {
				t.Errorf("err = %v, want %v", err, tt.wanted)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"no name", "fields:\n  - name: a\n    type: int\n"},
		{"no fields", "name: x\n"},
		{"fields not list", "name: x\nfields: 3\n"},
		{"unknown type", "name: x\nfields:\n  - name: a\n    type: float\n"},
		{"bad required", "name: x\nfields:\n  - name: a\n    type: int\n    required: yes\n"},
		{"bad max_length", "name: x\nfields:\n  - name: a\n    type: string\n    max_length: ten\n"},
		{"tab indent", "name: x\n\tfields: 3\n"},
		{"scalar field item", "name: x\nfields:\n  - justscalar\n"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.src); err == nil {
				t.Error("Parse accepted invalid schema")
			}
		})
	}
}

func TestRecordEncodeDeterministic(t *testing.T) {
	r1 := Record{"b": Int(2), "a": String("x"), "c": Bool(true)}
	r2 := Record{"c": Bool(true), "a": String("x"), "b": Int(2)}
	if !bytes.Equal(r1.Encode(), r2.Encode()) {
		t.Error("same record content encodes differently")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r := Record{
		"user":  String("ALPHA"),
		"n":     Int(-7),
		"u":     Uint(9),
		"blob":  Bytes([]byte{1, 2, 3}),
		"flag":  Bool(true),
		"stamp": Timestamp(1234),
	}
	back, err := DecodeRecord(r.Encode())
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if !r.Equal(back) {
		t.Errorf("round trip mismatch: %v vs %v", r, back)
	}
}

func TestDecodeRecordRejectsGarbage(t *testing.T) {
	if _, err := DecodeRecord([]byte{1, 2, 3}); err == nil {
		t.Error("garbage accepted")
	}
	// Non-canonical order must be rejected.
	e := Record{"a": Int(1)}.Encode()
	f := Record{"b": Int(2)}.Encode()
	// splice: count=2, then fields b then a (wrong order)
	spliced := append([]byte{0, 0, 0, 2}, append(f[4:], e[4:]...)...)
	if _, err := DecodeRecord(spliced); err == nil {
		t.Error("non-canonical field order accepted")
	}
}

func TestRecordEqual(t *testing.T) {
	a := Record{"x": String("1"), "y": Bytes([]byte{5})}
	b := Record{"x": String("1"), "y": Bytes([]byte{5})}
	if !a.Equal(b) {
		t.Error("equal records not Equal")
	}
	c := Record{"x": String("1"), "y": Bytes([]byte{6})}
	if a.Equal(c) {
		t.Error("different records Equal")
	}
	d := Record{"x": String("1")}
	if a.Equal(d) || d.Equal(a) {
		t.Error("different sizes Equal")
	}
	e := Record{"x": Int(1), "y": Bytes([]byte{5})}
	if a.Equal(e) {
		t.Error("different types Equal")
	}
}

func TestValueDisplay(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{String("hi"), "hi"},
		{Int(-3), "-3"},
		{Uint(8), "8"},
		{Timestamp(99), "99"},
		{Bytes([]byte{0xAB}), "0xab"},
		{Bool(true), "true"},
	}
	for _, tt := range tests {
		if got := tt.v.Display(); got != tt.want {
			t.Errorf("Display(%+v) = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestYAMLQuotedScalarsAndComments(t *testing.T) {
	src := `
name: "with # hash"      # trailing comment
doc: "line\nbreak \"q\" \\ \t"
fields:
  - name: a
    type: string
`
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Name() != "with # hash" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.Doc() != "line\nbreak \"q\" \\ \t" {
		t.Errorf("Doc = %q", s.Doc())
	}
}

func TestYAMLDuplicateKeyRejected(t *testing.T) {
	if _, err := ParseYAML("a: 1\na: 2\n"); !errors.Is(err, ErrSyntax) {
		t.Errorf("duplicate key: %v, want ErrSyntax", err)
	}
}

func TestYAMLScalarList(t *testing.T) {
	n, err := ParseYAML("items:\n  - one\n  - \"two three\"\n")
	if err != nil {
		t.Fatalf("ParseYAML: %v", err)
	}
	items, ok := n.Get("items")
	if !ok || items.Kind != KindList || len(items.List) != 2 {
		t.Fatalf("items = %+v", items)
	}
	if items.List[0].Scalar != "one" || items.List[1].Scalar != "two three" {
		t.Errorf("list = %q, %q", items.List[0].Scalar, items.List[1].Scalar)
	}
}

func TestYAMLNestedMaps(t *testing.T) {
	n, err := ParseYAML("outer:\n  inner:\n    leaf: v\n")
	if err != nil {
		t.Fatalf("ParseYAML: %v", err)
	}
	outer, _ := n.Get("outer")
	inner, ok := outer.Get("inner")
	if !ok {
		t.Fatal("no inner")
	}
	if got := inner.ScalarOr("leaf", ""); got != "v" {
		t.Errorf("leaf = %q", got)
	}
}

func TestYAMLKeyOrderPreserved(t *testing.T) {
	n, err := ParseYAML("b: 1\na: 2\nc: 3\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"b", "a", "c"}
	for i, k := range n.Keys {
		if k != want[i] {
			t.Fatalf("Keys = %v, want %v", n.Keys, want)
		}
	}
}

// Property: record encode/decode round-trips for arbitrary string fields.
func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(a, b string, n int64, u uint64, blob []byte, flag bool) bool {
		if a == b || a == "" || b == "" {
			return true
		}
		r := Record{
			a:      String(b),
			b:      Int(n),
			"_u":   Uint(u),
			"_bl":  Bytes(blob),
			"_fl":  Bool(flag),
			"_ts_": Timestamp(u / 2),
		}
		back, err := DecodeRecord(r.Encode())
		if err != nil {
			return false
		}
		return r.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Test-only constructors and accessors.

// Name returns the schema name.
func (s *Schema) Name() string { return s.name }

// Doc returns the optional schema description.
func (s *Schema) Doc() string { return s.doc }

// Field returns the declaration of the named field.
func (s *Schema) Field(name string) (Field, bool) {
	i, ok := s.byName[name]
	if !ok {
		return Field{}, false
	}
	return s.fields[i], true
}

// Int constructs an int value.
func Int(v int64) Value { return Value{Type: TypeInt, I64: v} }

// Uint constructs a uint value.
func Uint(v uint64) Value { return Value{Type: TypeUint, U64: v} }

// Bytes constructs a bytes value (the slice is not copied).
func Bytes(b []byte) Value { return Value{Type: TypeBytes, Blob: b} }

// Equal reports deep equality of two records.
func (r Record) Equal(other Record) bool {
	if len(r) != len(other) {
		return false
	}
	for k, v := range r {
		w, ok := other[k]
		if !ok || v.Type != w.Type {
			return false
		}
		switch v.Type {
		case TypeString:
			if v.Str != w.Str {
				return false
			}
		case TypeInt:
			if v.I64 != w.I64 {
				return false
			}
		case TypeUint, TypeTimestamp:
			if v.U64 != w.U64 {
				return false
			}
		case TypeBytes:
			if string(v.Blob) != string(w.Blob) {
				return false
			}
		case TypeBool:
			if v.Flag != w.Flag {
				return false
			}
		}
	}
	return true
}

// Display renders the value for console output (Figs. 6–8 style).
func (v Value) Display() string {
	switch v.Type {
	case TypeString:
		return v.Str
	case TypeInt:
		return strconv.FormatInt(v.I64, 10)
	case TypeUint, TypeTimestamp:
		return strconv.FormatUint(v.U64, 10)
	case TypeBytes:
		return fmt.Sprintf("0x%x", v.Blob)
	case TypeBool:
		return strconv.FormatBool(v.Flag)
	default:
		return fmt.Sprintf("?%d", v.Type)
	}
}
