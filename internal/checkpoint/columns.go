package checkpoint

// Number columns that decode without reflection. A checkpoint payload is
// mostly long arrays of numbers (the engine's page table alone is over
// 90% of a large snapshot), and encoding/json decodes each element through
// reflection. Ints and Floats split the array by hand and parse each
// element with the strconv call encoding/json makes for that kind, so a
// column accepts, rejects and decodes exactly what encoding/json does for
// a plain slice of the same element type.
//
// They have no MarshalJSON: encoding/json already writes a named slice
// like a plain one, and it re-scans a Marshaler's output, which would add
// a second pass over the payload on Save.

import (
	"bytes"
	"fmt"
	"strconv"
)

// Ints is a JSON array of integers. It marshals like []T.
type Ints[T ~int | ~int64 | ~int32 | ~uint64 | ~uint16] []T

// Floats is a JSON array of float64 values. It marshals like []float64.
type Floats []float64

// UnmarshalJSON decodes b like encoding/json decodes a []T.
func (s *Ints[T]) UnmarshalJSON(b []byte) error {
	return decodeColumn(b, (*[]T)(s), parseInt[T])
}

// UnmarshalJSON decodes b like encoding/json decodes a []float64.
func (s *Floats) UnmarshalJSON(b []byte) error {
	return decodeColumn(b, (*[]float64)(s), parseFloat)
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
	b = skipSpace(b)
	for len(b) > 0 && isSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
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
