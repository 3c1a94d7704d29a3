// Package schema declares and validates the structure of data entries.
//
// The paper's prototype specifies the structure of a data entry
// "beforehand by a YAML schema" (§V). This package implements a
// YAML-subset parser (yaml.go), a small type system for entry fields, and
// a canonical record encoding so that validated entries hash
// deterministically.
package schema

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"github.com/seldel/seldel/internal/codec"
)

// Type is the type of a schema field.
type Type uint8

// Field types supported by the schema language.
const (
	TypeString Type = iota + 1
	TypeInt
	TypeUint
	TypeBytes
	TypeBool
	TypeTimestamp // logical timestamp (uint64), see internal/simclock
)

var typeNames = map[Type]string{
	TypeString:    "string",
	TypeInt:       "int",
	TypeUint:      "uint",
	TypeBytes:     "bytes",
	TypeBool:      "bool",
	TypeTimestamp: "timestamp",
}

var typeByName = func() map[string]Type {
	m := make(map[string]Type, len(typeNames))
	for t, n := range typeNames {
		m[n] = t
	}
	return m
}()

// String returns the schema-language name of the type.
func (t Type) String() string {
	if n, ok := typeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Valid reports whether t is a defined type.
func (t Type) Valid() bool { _, ok := typeNames[t]; return ok }

// Field is one declared field of an entry schema.
type Field struct {
	Name     string
	Type     Type
	Required bool
	// MaxLength bounds string/bytes fields; 0 means unbounded.
	MaxLength int
}

// Schema is a compiled entry schema.
type Schema struct {
	name   string
	doc    string
	fields []Field
	byName map[string]int
}

// Errors returned by schema compilation and validation.
var (
	ErrBadSchema     = errors.New("schema: invalid schema definition")
	ErrValidation    = errors.New("schema: record does not match schema")
	ErrUnknownField  = errors.New("schema: unknown field")
	ErrMissingField  = errors.New("schema: missing required field")
	ErrTypeMismatch  = errors.New("schema: field type mismatch")
	ErrLengthExceeds = errors.New("schema: field exceeds max_length")
)

// New compiles a schema from explicit fields.
func New(name string, fields ...Field) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty schema name", ErrBadSchema)
	}
	s := &Schema{name: name, byName: make(map[string]int, len(fields))}
	for _, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("%w: field with empty name", ErrBadSchema)
		}
		if !f.Type.Valid() {
			return nil, fmt.Errorf("%w: field %q has invalid type", ErrBadSchema, f.Name)
		}
		if f.MaxLength < 0 {
			return nil, fmt.Errorf("%w: field %q has negative max_length", ErrBadSchema, f.Name)
		}
		if f.MaxLength > 0 && f.Type != TypeString && f.Type != TypeBytes {
			return nil, fmt.Errorf("%w: field %q: max_length only applies to string/bytes", ErrBadSchema, f.Name)
		}
		if _, dup := s.byName[f.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate field %q", ErrBadSchema, f.Name)
		}
		s.byName[f.Name] = len(s.fields)
		s.fields = append(s.fields, f)
	}
	if len(s.fields) == 0 {
		return nil, fmt.Errorf("%w: schema %q has no fields", ErrBadSchema, name)
	}
	return s, nil
}

// Parse compiles a schema from a YAML-subset document of the form:
//
//	name: login_event
//	doc: optional description
//	fields:
//	  - name: user
//	    type: string
//	    required: true
//	    max_length: 64
//	  - name: success
//	    type: bool
func Parse(src string) (*Schema, error) {
	root, err := ParseYAML(src)
	if err != nil {
		return nil, err
	}
	name := root.ScalarOr("name", "")
	if name == "" {
		return nil, fmt.Errorf("%w: missing 'name'", ErrBadSchema)
	}
	fieldsNode, ok := root.Get("fields")
	if !ok || fieldsNode.Kind != KindList {
		return nil, fmt.Errorf("%w: missing 'fields' list", ErrBadSchema)
	}
	fields := make([]Field, 0, len(fieldsNode.List))
	for i, item := range fieldsNode.List {
		if item.Kind != KindMap {
			return nil, fmt.Errorf("%w: fields[%d] is not a mapping", ErrBadSchema, i)
		}
		f := Field{
			Name: item.ScalarOr("name", ""),
		}
		typeName := item.ScalarOr("type", "")
		t, ok := typeByName[typeName]
		if !ok {
			return nil, fmt.Errorf("%w: fields[%d] (%q): unknown type %q", ErrBadSchema, i, f.Name, typeName)
		}
		f.Type = t
		switch req := item.ScalarOr("required", "false"); req {
		case "true":
			f.Required = true
		case "false":
		default:
			return nil, fmt.Errorf("%w: fields[%d] (%q): required must be true/false, got %q", ErrBadSchema, i, f.Name, req)
		}
		if ml := item.ScalarOr("max_length", ""); ml != "" {
			n, err := strconv.Atoi(ml)
			if err != nil {
				return nil, fmt.Errorf("%w: fields[%d] (%q): bad max_length: %v", ErrBadSchema, i, f.Name, err)
			}
			f.MaxLength = n
		}
		fields = append(fields, f)
	}
	s, err := New(name, fields...)
	if err != nil {
		return nil, err
	}
	s.doc = root.ScalarOr("doc", "")
	return s, nil
}

// Fields returns a copy of the declared fields in declaration order.
func (s *Schema) Fields() []Field {
	out := make([]Field, len(s.fields))
	copy(out, s.fields)
	return out
}

// Validate checks r against the schema: all required fields present, no
// unknown fields, types match, and length bounds hold.
func (s *Schema) Validate(r Record) error {
	for name := range r {
		if _, ok := s.byName[name]; !ok {
			return fmt.Errorf("%w: %q (schema %s)", ErrUnknownField, name, s.name)
		}
	}
	for _, f := range s.fields {
		v, present := r[f.Name]
		if !present {
			if f.Required {
				return fmt.Errorf("%w: %q (schema %s)", ErrMissingField, f.Name, s.name)
			}
			continue
		}
		if v.Type != f.Type {
			return fmt.Errorf("%w: field %q is %s, schema wants %s", ErrTypeMismatch, f.Name, v.Type, f.Type)
		}
		if f.MaxLength > 0 {
			var n int
			switch f.Type {
			case TypeString:
				n = len(v.Str)
			case TypeBytes:
				n = len(v.Blob)
			}
			if n > f.MaxLength {
				return fmt.Errorf("%w: field %q length %d > %d", ErrLengthExceeds, f.Name, n, f.MaxLength)
			}
		}
	}
	return nil
}

// Value is a dynamically typed field value.
type Value struct {
	Type Type
	Str  string
	I64  int64
	U64  uint64
	Blob []byte
	Flag bool
}

// String constructs a string value.
func String(s string) Value { return Value{Type: TypeString, Str: s} }

// Bool constructs a bool value.
func Bool(v bool) Value { return Value{Type: TypeBool, Flag: v} }

// Timestamp constructs a logical-timestamp value.
func Timestamp(t uint64) Value { return Value{Type: TypeTimestamp, U64: t} }

// Record is a set of named field values.
type Record map[string]Value

// Encode produces the canonical binary encoding of the record: fields
// sorted by name, each as (name, type tag, value). Two records with equal
// content always encode identically.
func (r Record) Encode() []byte {
	names := make([]string, 0, len(r))
	for n := range r {
		names = append(names, n)
	}
	sort.Strings(names)
	e := codec.NewEncoder(64 * (len(r) + 1))
	e.Uint32(uint32(len(names)))
	for _, n := range names {
		v := r[n]
		e.String(n)
		e.Byte(byte(v.Type))
		switch v.Type {
		case TypeString:
			e.String(v.Str)
		case TypeInt:
			e.Int64(v.I64)
		case TypeUint, TypeTimestamp:
			e.Uint64(v.U64)
		case TypeBytes:
			e.Bytes(v.Blob)
		case TypeBool:
			e.Bool(v.Flag)
		}
	}
	return e.Data()
}

// maxRecordFields bounds the declared field count so corrupted input
// cannot force a huge allocation.
const maxRecordFields = 1 << 16

// DecodeRecord parses a canonical record encoding.
func DecodeRecord(data []byte) (Record, error) {
	d := codec.NewDecoder(data)
	n := d.Uint32()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > maxRecordFields {
		return nil, fmt.Errorf("%w: field count %d exceeds limit", ErrValidation, n)
	}
	r := make(Record, n)
	var prev string
	for i := uint32(0); i < n; i++ {
		name := d.ReadString()
		t := Type(d.Byte())
		if err := d.Err(); err != nil {
			return nil, err
		}
		if i > 0 && name <= prev {
			return nil, fmt.Errorf("%w: field order not canonical (%q after %q)", ErrValidation, name, prev)
		}
		prev = name
		var v Value
		v.Type = t
		switch t {
		case TypeString:
			v.Str = d.ReadString()
		case TypeInt:
			v.I64 = d.Int64()
		case TypeUint, TypeTimestamp:
			v.U64 = d.Uint64()
		case TypeBytes:
			v.Blob = d.Bytes()
		case TypeBool:
			v.Flag = d.Bool()
		default:
			return nil, fmt.Errorf("%w: unknown type tag %d for field %q", ErrValidation, t, name)
		}
		r[name] = v
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return r, nil
}
