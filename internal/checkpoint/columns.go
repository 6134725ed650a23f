package checkpoint

// Number columns. A checkpoint payload is mostly long columns of numbers
// (the engine's page table alone is over 90% of a large snapshot). Save
// writes the columns it can reach to the section (section.go). Marshalled
// as JSON, Ints and Floats write a column as one JSON string token, a
// packed column: that is how version-3 files hold them, and how the
// columns inside a self-marshalling value, such as a policy's
// checkpoint state, are still written. They read either that token or a
// JSON array.
//
// A packed column is the base64 (RawStdEncoding, no padding, unused
// bits zero) of one varint per element. The varint of element i is the
// zigzag encoding of its difference from element i-1 (from 0 for the
// first), in wrapping 64-bit arithmetic: an integer is taken as its
// int64 or uint64 value, a float64 as its math.Float64bits. Dense IDs,
// close timestamps and repeated values cost a byte or two each, and
// encoding/json's validity scan and skip over a column only walk string
// bytes. Each element costs at least one byte, so a decoded column is
// never longer than its token.
//
// The columns implement encoding.TextMarshaler, not json.Marshaler:
// encoding/json runs a Marshaler's output through its full scanner
// again, but only escapes a TextMarshaler's, about three times faster.
// The price is that a nil column writes the empty token like an empty
// one; the empty token decodes to an empty column.
//
// The array form is what version-2 files hold. It decodes without
// reflection: the array is split by hand and each element parsed with
// the strconv call encoding/json makes for that kind, so it accepts,
// rejects and decodes exactly what encoding/json does for a plain slice
// of the same element type, null included.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
)

// Ints is a column of integers.
type Ints[T ~int | ~int64 | ~int32 | ~uint64 | ~uint16] []T

// Floats is a column of finite float64 values.
type Floats []float64

// packing is the base64 alphabet of a packed column. Strict rejects
// nonzero unused bits, so every column has one encoding.
var packing = base64.RawStdEncoding.Strict()

// MarshalText packs s.
func (s Ints[T]) MarshalText() ([]byte, error) {
	return encode(s.appendDeltas(make([]byte, 0, 2*len(s)))), nil
}

// MarshalText packs s. Like encoding/json, it refuses NaN and
// infinities.
func (s Floats) MarshalText() ([]byte, error) {
	raw, err := s.appendDeltas(make([]byte, 0, 4*len(s)))
	if err != nil {
		return nil, err
	}
	return encode(raw), nil
}

// unsupportedFloat is encoding/json's error for a NaN or an infinity.
func unsupportedFloat(f float64) error {
	return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
}

// UnmarshalJSON decodes a packed column, or an array like encoding/json
// decodes a []T.
func (s *Ints[T]) UnmarshalJSON(b []byte) error {
	if !packed(b) {
		return decodeColumn(b, (*[]T)(s), parseInt[T])
	}
	raw, out, err := unpack(b, *s)
	if err == nil {
		var p int
		if p, err = decodeInts(raw, 0, out); err == nil && p != len(raw) {
			err = errVarint
		}
	}
	if err != nil {
		return fmt.Errorf("checkpoint: packed column: %w", err)
	}
	*s = out
	return nil
}

// UnmarshalJSON decodes a packed column, or an array like encoding/json
// decodes a []float64.
func (s *Floats) UnmarshalJSON(b []byte) error {
	if !packed(b) {
		return decodeColumn(b, (*[]float64)(s), parseFloat)
	}
	raw, out, err := unpack(b, *s)
	if err == nil {
		var p int
		if p, err = decodeFloats(raw, 0, out); err == nil && p != len(raw) {
			err = errVarint
		}
	}
	if err != nil {
		return fmt.Errorf("checkpoint: packed column: %w", err)
	}
	*s = out
	return nil
}

// encode returns the base64 of raw.
func encode(raw []byte) []byte {
	out := make([]byte, packing.EncodedLen(len(raw)))
	packing.Encode(out, raw)
	return out
}

// packed reports whether b is a string token, a packed column.
func packed(b []byte) bool {
	b = skipSpace(b)
	return len(b) > 0 && b[0] == '"'
}

// unpack decodes the base64 of the packed column tok and returns its
// varints and a column with one element per varint, which reuses dst's
// backing array when it is large enough.
func unpack[E any](tok []byte, dst []E) ([]byte, []E, error) {
	tok = trimSpace(tok)
	if len(tok) < 2 || tok[len(tok)-1] != '"' {
		return nil, nil, fmt.Errorf("unterminated token %.20q", tok)
	}
	raw := make([]byte, packing.DecodedLen(len(tok)-2))
	m, err := packing.Decode(raw, tok[1:len(tok)-1])
	if err != nil {
		return nil, nil, err
	}
	raw = raw[:m]
	n := 0
	for _, c := range raw {
		if c < 0x80 { // the last byte of a varint
			n++
		}
	}
	switch {
	case n == 0:
		return raw, []E{}, nil
	case n > cap(dst):
		return raw, make([]E, n), nil
	}
	return raw, dst[:n], nil
}

// parseInt is encoding/json's conversion of a number literal to an
// integer kind: ParseInt or ParseUint at 64 bits, then an overflow check
// for T.
func parseInt[T ~int | ~int64 | ~int32 | ~uint64 | ~uint16](tok []byte) (T, error) {
	var zero T
	if ^zero < 0 { // signed
		n, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil || int64(T(n)) != n {
			return 0, fmt.Errorf("checkpoint: cannot decode number %s into %T", tok, zero)
		}
		return T(n), nil
	}
	n, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil || uint64(T(n)) != n {
		return 0, fmt.Errorf("checkpoint: cannot decode number %s into %T", tok, zero)
	}
	return T(n), nil
}

// parseFloat is encoding/json's conversion of a number literal to a
// float64; an out-of-range value is an error, not an infinity.
func parseFloat(tok []byte) (float64, error) {
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: cannot decode number %s into float64", tok)
	}
	return f, nil
}

// decodeColumn decodes the JSON array b into *dst with parse, following
// encoding/json's rules for a slice: null sets it to nil, [] to an empty
// non-nil slice, a null element leaves the element the slice's backing
// array already holds (zero in new storage), and any element that is not
// a number or null is an error. The backing array is reused when it is
// large enough.
func decodeColumn[E any](b []byte, dst *[]E, parse func([]byte) (E, error)) error {
	b = trimSpace(b)
	if string(b) == "null" {
		*dst = nil
		return nil
	}
	if len(b) < 2 || b[0] != '[' || b[len(b)-1] != ']' {
		return fmt.Errorf("checkpoint: cannot decode %.20q into a number column", b)
	}
	old := (*dst)[:cap(*dst)]
	out := old[:0]
	if n := bytes.Count(b, []byte{','}) + 1; n > cap(out) {
		out = make([]E, 0, n)
	}
	rest := skipSpace(b[1 : len(b)-1])
	for len(rest) > 0 {
		end := 0
		for end < len(rest) && rest[end] != ',' && !isSpace(rest[end]) {
			end++
		}
		tok := rest[:end]
		var v E
		switch {
		case string(tok) == "null":
			if i := len(out); i < len(old) {
				v = old[i]
			}
		case end > 0 && (tok[0] == '-' || '0' <= tok[0] && tok[0] <= '9'):
			var err error
			if v, err = parse(tok); err != nil {
				return err
			}
		default:
			return fmt.Errorf("checkpoint: cannot decode element %.20q of a number column", tok)
		}
		out = append(out, v)
		rest = skipSpace(rest[end:])
		if len(rest) == 0 {
			break
		}
		if rest[0] != ',' {
			return fmt.Errorf("checkpoint: malformed number column near %.20q", rest)
		}
		rest = skipSpace(rest[1:])
		if len(rest) == 0 {
			return fmt.Errorf("checkpoint: number column ends in a comma")
		}
	}
	if len(out) == 0 {
		out = []E{}
	}
	*dst = out
	return nil
}

// isSpace reports JSON whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func skipSpace(b []byte) []byte {
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	return b
}

// trimSpace strips JSON whitespace from both ends of b.
func trimSpace(b []byte) []byte {
	b = skipSpace(b)
	for len(b) > 0 && isSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}
