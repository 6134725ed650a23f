package checkpoint

// The section. In a version-4 envelope every Ints and Floats column of
// the payload is written after the JSON, not inside it, so encoding/json
// only walks the payload's structured state.
//
// The section is the payload's columns in walk order. Each column is a
// uvarint element count, then one varint per element: the zigzag
// encoding of its difference from the element before it (from 0 for the
// first), in wrapping 64-bit arithmetic, as in a packed column
// (columns.go). In the JSON each column writes the empty token "", or
// nothing if its field is omitempty. A short or long section, a count
// larger than the bytes left, an element that does not fit the column's
// type, a non-finite float, and a column the JSON gave any elements are
// all corrupt.
//
// The walk visits the payload's JSON-visible fields in field order and
// goes through pointers, structs, arrays and slices. It does not enter a
// value that marshals itself (json.RawMessage among them): the columns
// inside such a value stay in its JSON as packed tokens. A column
// reachable only through a map or an interface is an error, because a
// map has no field order. Whether a type holds any column is worked out
// once per type, so slices of plain records are not walked element by
// element.

import (
	"encoding"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
)

// column is implemented by *Ints[T] and *Floats.
type column interface {
	// appendSection appends the column's section form to sec.
	appendSection(sec []byte) ([]byte, error)
	// readSection decodes one column from the front of sec into the
	// column and returns the rest of sec. A column of no elements is
	// left as it is.
	readSection(sec []byte) ([]byte, error)
}

var (
	columnType = reflect.TypeFor[column]()
	marshalers = []reflect.Type{reflect.TypeFor[json.Marshaler](), reflect.TypeFor[json.Unmarshaler](), reflect.TypeFor[encoding.TextMarshaler](), reflect.TypeFor[encoding.TextUnmarshaler]()}
	errInMap   = errors.New("a number column inside a map")
	errInIface = errors.New("a number column behind an interface")
	// walkersCache memoizes walkerFor, as encoding/json caches its
	// field lists: reflect.Type -> walker, nil when the type holds no
	// column.
	walkersCache sync.Map
)

// A walker appends the columns reachable from v, an addressable value of
// the type it was built for, to cols in walk order.
type walker func(v reflect.Value, cols []reflect.Value) ([]reflect.Value, error)

// findColumns returns payload as an addressable value and its columns.
// A payload passed by value is copied, so its own columns can be cleared
// without touching the caller's; Load passes a pointer, so the columns
// it fills are the caller's.
func findColumns(payload any) (reflect.Value, []reflect.Value, error) {
	v := reflect.ValueOf(payload)
	if !v.IsValid() {
		return v, nil, nil
	}
	w := walkerFor(v.Type())
	if w == nil {
		return v, nil, nil
	}
	root := reflect.New(v.Type()).Elem()
	root.Set(v)
	cols, err := w(root, nil)
	return root, cols, err
}

// withColumnsCleared runs marshal with every column set to nil, and puts
// the columns back before it returns.
func withColumnsCleared(cols []reflect.Value, marshal func() error) error {
	saved := make([]reflect.Value, len(cols))
	for i, c := range cols {
		saved[i] = reflect.New(c.Type()).Elem()
		saved[i].Set(c)
		c.SetZero()
	}
	defer func() {
		for i, c := range cols {
			c.Set(saved[i])
		}
	}()
	return marshal()
}

// appendColumns appends the section of cols to buf.
func appendColumns(buf []byte, cols []reflect.Value) ([]byte, error) {
	n := 0
	for _, c := range cols {
		n += c.Len()
	}
	// Most elements take one or two bytes; a column that needs more
	// grows the buffer as it goes.
	buf = slices.Grow(buf, 2*n+binary.MaxVarintLen64*len(cols))
	var err error
	for _, c := range cols {
		if buf, err = c.Addr().Interface().(column).appendSection(buf); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// fillColumns fills cols, which json.Unmarshal has just decoded, from
// section.
func fillColumns(cols []reflect.Value, section []byte) error {
	var err error
	for i, c := range cols {
		if c.Len() != 0 {
			return fmt.Errorf("column %d of the section has elements in the JSON too", i)
		}
		if section, err = c.Addr().Interface().(column).readSection(section); err != nil {
			return fmt.Errorf("column %d of the section: %v", i, err)
		}
	}
	if len(section) > 0 {
		return fmt.Errorf("%d bytes after the last column of the section", len(section))
	}
	return nil
}

// walkerFor returns the walker of t, nil if t holds no column.
func walkerFor(t reflect.Type) walker {
	if w, ok := walkersCache.Load(t); ok {
		return w.(walker)
	}
	return build(t, map[reflect.Type]bool{})
}

// build makes and caches the walker of t. busy holds the types being
// built further up, so a recursive type gets a walker that looks its own
// up when it runs.
func build(t reflect.Type, busy map[reflect.Type]bool) walker {
	if w, ok := walkersCache.Load(t); ok {
		return w.(walker)
	}
	if busy[t] {
		return func(v reflect.Value, cols []reflect.Value) ([]reflect.Value, error) {
			if w := walkerFor(t); w != nil {
				return w(v, cols)
			}
			return cols, nil
		}
	}
	busy[t] = true
	w := makeWalker(t, busy)
	delete(busy, t)
	walkersCache.Store(t, w)
	return w
}

func makeWalker(t reflect.Type, busy map[reflect.Type]bool) walker {
	if t.Kind() == reflect.Slice && reflect.PointerTo(t).Implements(columnType) {
		return func(v reflect.Value, cols []reflect.Value) ([]reflect.Value, error) {
			return append(cols, v), nil
		}
	}
	for _, m := range marshalers {
		if t.Implements(m) || reflect.PointerTo(t).Implements(m) {
			return nil
		}
	}
	switch t.Kind() {
	case reflect.Pointer:
		elem := build(t.Elem(), busy)
		if elem == nil {
			return nil
		}
		return func(v reflect.Value, cols []reflect.Value) ([]reflect.Value, error) {
			if v.IsNil() {
				return cols, nil
			}
			return elem(v.Elem(), cols)
		}
	case reflect.Struct:
		var fields []int
		var walkers []walker
		for i := range t.NumField() {
			f := t.Field(i)
			if !jsonVisible(f) {
				continue
			}
			if w := build(f.Type, busy); w != nil {
				fields = append(fields, i)
				walkers = append(walkers, w)
			}
		}
		if len(fields) == 0 {
			return nil
		}
		return func(v reflect.Value, cols []reflect.Value) ([]reflect.Value, error) {
			var err error
			for k, i := range fields {
				if cols, err = walkers[k](v.Field(i), cols); err != nil {
					return nil, err
				}
			}
			return cols, nil
		}
	case reflect.Array, reflect.Slice:
		elem := build(t.Elem(), busy)
		if elem == nil {
			return nil
		}
		return func(v reflect.Value, cols []reflect.Value) ([]reflect.Value, error) {
			var err error
			for i := range v.Len() {
				if cols, err = elem(v.Index(i), cols); err != nil {
					return nil, err
				}
			}
			return cols, nil
		}
	case reflect.Map:
		// Only values: a key that holds a column is not a JSON map key.
		elem := build(t.Elem(), busy)
		if elem == nil {
			return nil
		}
		return func(v reflect.Value, cols []reflect.Value) ([]reflect.Value, error) {
			for it := v.MapRange(); it.Next(); {
				if holdsColumn(elem, it.Value()) {
					return nil, errInMap
				}
			}
			return cols, nil
		}
	case reflect.Interface:
		return func(v reflect.Value, cols []reflect.Value) ([]reflect.Value, error) {
			if v.IsNil() {
				return cols, nil
			}
			if w := walkerFor(v.Elem().Type()); w != nil && holdsColumn(w, v.Elem()) {
				return nil, errInIface
			}
			return cols, nil
		}
	}
	return nil
}

// holdsColumn reports whether w finds a column in a copy of v (or finds
// one where it may not be).
func holdsColumn(w walker, v reflect.Value) bool {
	c := reflect.New(v.Type()).Elem()
	c.Set(v)
	cols, err := w(c, nil)
	return err != nil || len(cols) > 0
}

// jsonVisible reports whether encoding/json marshals field f or, for an
// embedded struct, the fields it promotes.
func jsonVisible(f reflect.StructField) bool {
	if f.Tag.Get("json") == "-" {
		return false
	}
	if !f.Anonymous {
		return f.IsExported()
	}
	t := f.Type
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return f.IsExported() || t.Kind() == reflect.Struct
}

// appendSection appends s to sec: its length, then its deltas.
func (s *Ints[T]) appendSection(sec []byte) ([]byte, error) {
	return (*s).appendDeltas(binary.AppendUvarint(sec, uint64(len(*s)))), nil
}

// appendSection appends s to sec: its length, then its deltas.
func (s *Floats) appendSection(sec []byte) ([]byte, error) {
	return (*s).appendDeltas(binary.AppendUvarint(sec, uint64(len(*s))))
}

// readSection reads a count from the front of sec, then that many deltas
// into a new column.
func (s *Ints[T]) readSection(sec []byte) ([]byte, error) {
	n, p, err := readCount(sec)
	if err != nil || n == 0 {
		return sec[p:], err
	}
	out := make([]T, n)
	if p, err = decodeInts(sec, p, out); err != nil {
		return nil, err
	}
	*s = out
	return sec[p:], nil
}

// readSection reads a count from the front of sec, then that many deltas
// into a new column.
func (s *Floats) readSection(sec []byte) ([]byte, error) {
	n, p, err := readCount(sec)
	if err != nil || n == 0 {
		return sec[p:], err
	}
	out := make([]float64, n)
	if p, err = decodeFloats(sec, p, out); err != nil {
		return nil, err
	}
	*s = out
	return sec[p:], nil
}

// readCount reads a column's element count from the front of sec and
// returns it with the offset after it. Each element takes at least one
// byte, so a count past the bytes left is an error, and no column is
// allocated longer than the section.
func readCount(sec []byte) (int, int, error) {
	n, k := binary.Uvarint(sec)
	if k <= 0 {
		return 0, 0, errors.New("truncated or overlong element count")
	}
	if n > uint64(len(sec)-k) {
		return 0, 0, fmt.Errorf("element count %d past the %d bytes left", n, len(sec)-k)
	}
	return int(n), k, nil
}

// The delta codec, shared by the section and packed tokens. Each loop is
// typed, so no element goes through reflection or a conversion copy.

// appendDeltas appends the varints of s to sec.
func (s Ints[T]) appendDeltas(sec []byte) []byte {
	var prev uint64
	for len(s) > 0 {
		n := min(len(s), deltaChunk)
		sec = slices.Grow(sec, n*binary.MaxVarintLen64)
		out, k := sec[len(sec):cap(sec)], 0
		for _, v := range s[:n] {
			k += putDelta(out[k:], uint64(v)-prev)
			prev = uint64(v)
		}
		sec, s = sec[:len(sec)+k], s[n:]
	}
	return sec
}

// appendDeltas appends the varints of s to sec. Like encoding/json, it
// refuses NaN and infinities.
func (s Floats) appendDeltas(sec []byte) ([]byte, error) {
	var prev uint64
	for len(s) > 0 {
		n := min(len(s), deltaChunk)
		sec = slices.Grow(sec, n*binary.MaxVarintLen64)
		out, k := sec[len(sec):cap(sec)], 0
		for _, f := range s[:n] {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, unsupportedFloat(f)
			}
			bits := math.Float64bits(f)
			k += putDelta(out[k:], bits-prev)
			prev = bits
		}
		sec, s = sec[:len(sec)+k], s[n:]
	}
	return sec, nil
}

// deltaChunk is how many elements an encoder writes per growth check.
const deltaChunk = 4096

// putDelta writes the zigzag varint of the wrapped difference d to the
// front of out, which has room for it, and returns its length.
func putDelta(out []byte, d uint64) int {
	u := d<<1 ^ uint64(int64(d)>>63)
	k := 0
	for u >= 0x80 {
		out[k] = byte(u) | 0x80
		u >>= 7
		k++
	}
	out[k] = byte(u)
	return k + 1
}

// decodeInts decodes len(out) deltas from sec[p:] into out and returns
// the offset after them.
func decodeInts[T ~int | ~int64 | ~int32 | ~uint64 | ~uint16](sec []byte, p int, out []T) (int, error) {
	var acc, u uint64
	for i := range out {
		if p < len(sec) && sec[p] < 0x80 {
			u = uint64(sec[p])
			p++
		} else if u, p = readLongVarint(sec, p); p < 0 {
			return 0, errVarint
		}
		acc += u>>1 ^ -(u & 1)
		v := T(acc)
		if uint64(v) != acc {
			return 0, fmt.Errorf("value %#x does not fit %T", acc, v)
		}
		out[i] = v
	}
	return p, nil
}

// decodeFloats decodes len(out) deltas from sec[p:] into out and
// returns the offset after them. NaN and infinities are refused.
func decodeFloats(sec []byte, p int, out []float64) (int, error) {
	var acc, u uint64
	for i := range out {
		if p < len(sec) && sec[p] < 0x80 {
			u = uint64(sec[p])
			p++
		} else if u, p = readLongVarint(sec, p); p < 0 {
			return 0, errVarint
		}
		acc += u>>1 ^ -(u & 1)
		f := math.Float64frombits(acc)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, fmt.Errorf("value %v in a float column", f)
		}
		out[i] = f
	}
	return p, nil
}

var errVarint = errors.New("truncated or overlong varint")

// readLongVarint reads the uvarint at sec[p:] and returns it and the
// offset after it, or a negative offset if there is no whole varint of
// at most 64 bits there. The decode loops read a one-byte varint
// themselves.
func readLongVarint(sec []byte, p int) (uint64, int) {
	u, k := binary.Uvarint(sec[p:])
	if k <= 0 {
		return 0, -1
	}
	return u, p + k
}
