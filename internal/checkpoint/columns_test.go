package checkpoint

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"unicode/utf8"
)

// tick stands for a named element type such as simclock.Time.
type tick int64

// cols holds one column of every element kind the engine's snapshot
// uses; mirror is the same struct decoded by the reference decoders
// refInts and refFloats. The columns must agree with them.
type cols struct {
	Int  Ints[int]    `json:"int"`
	I64  Ints[int64]  `json:"i64"`
	I32  Ints[int32]  `json:"i32"`
	U64  Ints[uint64] `json:"u64"`
	U16  Ints[uint16] `json:"u16"`
	Tick Ints[tick]   `json:"tick"`
	F    Floats       `json:"f"`
}

type mirror struct {
	Int  refInts[int]    `json:"int"`
	I64  refInts[int64]  `json:"i64"`
	I32  refInts[int32]  `json:"i32"`
	U64  refInts[uint64] `json:"u64"`
	U16  refInts[uint16] `json:"u16"`
	Tick refInts[tick]   `json:"tick"`
	F    refFloats       `json:"f"`
}

// refInts and refFloats decode an array as encoding/json decodes a plain
// slice, and a string token with refUnpack.
type refInts[T ~int | ~int64 | ~int32 | ~uint64 | ~uint16] []T

type refFloats []float64

func (s *refInts[T]) UnmarshalJSON(b []byte) error {
	if b[0] != '"' {
		return json.Unmarshal(b, (*[]T)(s))
	}
	return refUnpack(b, (*[]T)(s), refIntConv[T])
}

// refIntConv is encoding/json's range check for T, on the value as a
// literal.
func refIntConv[T ~int | ~int64 | ~int32 | ~uint64 | ~uint16](x int64) (T, error) {
	var v T
	lit := strconv.FormatInt(x, 10)
	if ^v > 0 { // unsigned
		lit = strconv.FormatUint(uint64(x), 10)
	}
	return v, json.Unmarshal([]byte(lit), &v)
}

func (s *refFloats) UnmarshalJSON(b []byte) error {
	if b[0] != '"' {
		return json.Unmarshal(b, (*[]float64)(s))
	}
	return refUnpack(b, (*[]float64)(s), refFloatConv)
}

func refFloatConv(x int64) (float64, error) {
	f := math.Float64frombits(uint64(x))
	_, err := json.Marshal(f) // encoding/json refuses NaN and infinities
	return f, err
}

// refUnpack is the packed-column grammar written plainly: the strict
// RawStdEncoding base64 of a sequence of zigzag varints, each the
// difference of an element from the one before it.
func refUnpack[E any](tok []byte, dst *[]E, conv func(int64) (E, error)) error {
	raw, err := base64.RawStdEncoding.Strict().DecodeString(string(tok[1 : len(tok)-1]))
	if err != nil {
		return err
	}
	r := bytes.NewReader(raw)
	out := []E{}
	var acc int64
	for r.Len() > 0 {
		d, err := binary.ReadVarint(r)
		if err != nil {
			return err
		}
		acc += d
		v, err := conv(acc)
		if err != nil {
			return err
		}
		out = append(out, v)
	}
	*dst = out
	return nil
}

// diff names the first column where c and m differ: nil-ness, length,
// or an element (floats bit for bit, so -0 is not 0).
func diff(c *cols, m *mirror) error {
	bits := func(v []float64) []uint64 {
		if v == nil {
			return nil
		}
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for _, col := range []struct {
		name      string
		got, want any
	}{
		{"int", []int(c.Int), []int(m.Int)},
		{"i64", []int64(c.I64), []int64(m.I64)},
		{"i32", []int32(c.I32), []int32(m.I32)},
		{"u64", []uint64(c.U64), []uint64(m.U64)},
		{"u16", []uint16(c.U16), []uint16(m.U16)},
		{"tick", []tick(c.Tick), []tick(m.Tick)},
		{"f", bits(c.F), bits(m.F)},
	} {
		if !reflect.DeepEqual(col.got, col.want) {
			return fmt.Errorf("column %s: decoded %#v, the reference gives %#v", col.name, col.got, col.want)
		}
	}
	return nil
}

// maxCap is the largest capacity of a column of c.
func (c *cols) maxCap() int {
	return max(cap(c.Int), cap(c.I64), cap(c.I32), cap(c.U64), cap(c.U16), cap(c.Tick), cap(c.F))
}

// sameDecode unmarshals payload into fresh cols and mirror values and
// reports whether both accept it alike and, if so, to the same values.
// Decoding must also allocate no column longer than the payload.
func sameDecode(payload []byte) error {
	var c cols
	var m mirror
	cerr := json.Unmarshal(payload, &c)
	merr := json.Unmarshal(payload, &m)
	if (cerr == nil) != (merr == nil) {
		return fmt.Errorf("%q: columns err=%v, reference err=%v", payload, cerr, merr)
	}
	if n := c.maxCap(); n > len(payload) {
		return fmt.Errorf("%q: a column of capacity %d from %d bytes", payload, n, len(payload))
	}
	if cerr != nil {
		return nil
	}
	return diff(&c, &m)
}

func TestColumnsMatchEncodingJSON(t *testing.T) {
	for _, payload := range []string{
		`{}`, `null`, `[]`, `5`, `"x"`,
		`{"i64":null,"f":null}`, `{"i64":[],"f":[]}`, `{"i64":[ ],"f":[	]}`,
		`{"i64":[1,-2,9223372036854775807,-9223372036854775808]}`,
		`{"i64":[9223372036854775808]}`,
		`{"int":[ 1 , 2 ,3 ]}`, `{"int":[1,null,3]}`, `{"int":[null]}`,
		`{"i32":[2147483647,-2147483648]}`, `{"i32":[2147483648]}`,
		`{"u16":[65535]}`, `{"u16":[65536]}`, `{"u16":[-1]}`, `{"u64":[-0]}`,
		`{"u64":[18446744073709551615]}`, `{"u64":[18446744073709551616]}`,
		`{"int":[-0]}`, `{"int":[1.0]}`, `{"int":[1e3]}`, `{"tick":[7,-7]}`,
		`{"f":[0,-0,1.5,-2e-3,1e308,5e-324]}`, `{"f":[1e400]}`, `{"f":[-1e400]}`, `{"f":[1e-400]}`,
		`{"f":[null,1]}`, `{"int":["1"]}`, `{"int":[[1]]}`, `{"int":[{}]}`, `{"int":[true]}`,
		`{"int":{}}`, `{"int":"[1]"}`, `{"int":7}`, `{"int":true}`,
		`{"INT":[3]}`, `{"int":[1,2,3],"int":[null,null]}`, `{"int":[1,2,3],"int":[]}`,
		`{"int":[1,2,3],"int":null}`, `{"f":[1,2],"f":[null,null,null]}`,
		// Packed tokens.
		`{"i64":"AAICAg"}`, `{"i64":""}`, `{"f":""}`, `{"int":"AQ"}`, `{"u64":"AQ"}`,
		`{"i64":"////////////AQ"}`, `{"i64":"ggA"}`, `{"tick":"AICwncLfAQ"}`,
		`{"u16":"/v8H"}`, `{"u16":"gIAI"}`, `{"i32":"/////w8"}`, `{"i32":"gICAgBA"}`,
		`{"f":"gICAgICAgPh/AA"}`, `{"f":"////////////AQ"}`,
		`{"f":"goCAgICAgPj/AQ"}`, `{"f":"gICAgICAgPD/AQ"}`,
		`{"i64":"gA"}`, `{"i64":"gICAgICAgICAgAE"}`, `{"i64":"AB"}`, `{"i64":"A"}`,
		`{"i64":"AA=="}`, `{"i64":"AB*D"}`, `{"i64":"\u0041A"}`, `{"i64":"A\nA"}`,
		`{"i64":"AAICAg","i64":[null]}`, `{"i64":[5,6,7,8,9],"i64":"AAICAg"}`,
	} {
		if err := sameDecode([]byte(payload)); err != nil {
			t.Error(err)
		}
	}
}

// TestColumnsReuseLikeEncodingJSON decodes into columns that already
// hold values: a null element keeps what the backing array holds, as
// encoding/json does for a plain slice.
func TestColumnsReuseLikeEncodingJSON(t *testing.T) {
	c := cols{Int: make(Ints[int], 2, 4), F: Floats{9, 8}}
	m := mirror{Int: make(refInts[int], 2, 4), F: refFloats{9, 8}}
	c.Int[0], c.Int[1] = 5, 6
	m.Int[0], m.Int[1] = 5, 6
	payload := []byte(`{"int":[null,1,null,null,null],"f":[null,null,null]}`)
	if err := json.Unmarshal(payload, &c); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(payload, &m); err != nil {
		t.Fatal(err)
	}
	if err := diff(&c, &m); err != nil {
		t.Fatal(err)
	}
}

// TestPackedColumns marshals each kind's extremes, -0 and an empty
// column, and decodes them back bit for bit. A nil column writes the
// empty token too. The packed form of a small column is pinned, and
// decoding into a column with room reuses its backing array.
func TestPackedColumns(t *testing.T) {
	in := cols{
		Int:  Ints[int]{0, 1, -1, math.MaxInt, math.MinInt, 7, 7},
		I64:  Ints[int64]{0, 1, 2, 3},
		I32:  Ints[int32]{math.MaxInt32, math.MinInt32, 5},
		U64:  Ints[uint64]{math.MaxUint64, 0, 1 << 63, 12},
		U16:  Ints[uint16]{math.MaxUint16, 0, 1},
		Tick: Ints[tick]{},
		F:    Floats{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64, 1.5, 1.5},
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"i64":"AAICAg"`, `"tick":""`} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("%s does not hold %s", raw, want)
		}
	}
	var out cols
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}
	if again, err := json.Marshal(out); err != nil || !bytes.Equal(again, raw) {
		t.Fatalf("re-encoded %s (err %v), want %s", again, err, raw)
	}
	if math.Signbit(out.F[0]) || !math.Signbit(out.F[1]) {
		t.Fatalf("zeros decoded as %v, %v", out.F[0], out.F[1])
	}

	if raw, err := json.Marshal(cols{}); err != nil || !bytes.Equal(raw, []byte(`{"int":"","i64":"","i32":"","u64":"","u16":"","tick":"","f":""}`)) {
		t.Fatalf("nil columns marshal to %s (err %v)", raw, err)
	}

	backing := make(Ints[int64], 1, 8)
	col := backing
	if err := json.Unmarshal([]byte(`"AAICAg"`), &col); err != nil {
		t.Fatal(err)
	}
	if len(col) != 4 || &col[0] != &backing[0] {
		t.Fatalf("decoded %v into new storage, want the reused backing array", col)
	}
}

// TestFloatsRefuseNonFinite: encoding/json cannot write NaN or an
// infinity, so neither can a packed column.
func TestFloatsRefuseNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := json.Marshal(cols{F: Floats{1, f}})
		var unsupported *json.UnsupportedValueError
		if !errors.As(err, &unsupported) {
			t.Errorf("marshal of %v: err %v, want an UnsupportedValueError", f, err)
		}
	}
}

// refFill is the section grammar for one mirror column, written on
// binary.ReadUvarint and binary.ReadVarint: the JSON left the column
// empty, a count follows, then that many deltas. A column of no elements
// keeps what the JSON gave it.
func refFill[E any](r *bytes.Reader, dst *[]E, conv func(int64) (E, error)) error {
	if len(*dst) != 0 {
		return errors.New("a moved column has elements in the JSON")
	}
	n, err := binary.ReadUvarint(r)
	if err != nil || n == 0 {
		return err
	}
	out := make([]E, 0, min(n, uint64(r.Len())))
	var acc int64
	for range n {
		d, err := binary.ReadVarint(r)
		if err != nil {
			return err
		}
		acc += d
		v, err := conv(acc)
		if err != nil {
			return err
		}
		out = append(out, v)
	}
	*dst = out
	return nil
}

// refLoad is the reference reader: the envelope object through
// encoding/json's Decoder, then magic, version, section length and CRC;
// the payload through encoding/json into m; and for version 4 the
// section through refFill, one mirror column after another in field
// order. It returns the section's length, 0 before version 4.
func refLoad(data []byte, m *mirror) (int, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var env envelope
	if err := dec.Decode(&env); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	section := data[dec.InputOffset():]
	switch {
	case env.Magic != Magic:
		return 0, ErrCorrupt
	case env.Version < oldestVersion || env.Version > Version:
		return 0, ErrVersion
	case env.Version < 4:
		if env.Columns != nil || len(bytes.TrimLeft(section, " \t\r\n")) > 0 {
			return 0, ErrCorrupt
		}
		section = nil
	case env.Columns == nil || *env.Columns != len(section):
		return 0, ErrCorrupt
	}
	if crc32.Update(crc32.ChecksumIEEE(env.Payload), crc32.IEEETable, section) != env.CRC {
		return 0, ErrCorrupt
	}
	if err := json.Unmarshal(env.Payload, m); err != nil {
		return 0, err
	}
	if env.Version < 4 {
		return 0, nil
	}
	r := bytes.NewReader(section)
	for _, fill := range []func() error{
		func() error { return refFill(r, (*[]int)(&m.Int), refIntConv[int]) },
		func() error { return refFill(r, (*[]int64)(&m.I64), refIntConv[int64]) },
		func() error { return refFill(r, (*[]int32)(&m.I32), refIntConv[int32]) },
		func() error { return refFill(r, (*[]uint64)(&m.U64), refIntConv[uint64]) },
		func() error { return refFill(r, (*[]uint16)(&m.U16), refIntConv[uint16]) },
		func() error { return refFill(r, (*[]tick)(&m.Tick), refIntConv[tick]) },
		func() error { return refFill(r, (*[]float64)(&m.F), refFloatConv) },
	} {
		if err := fill(); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if r.Len() > 0 {
		return 0, ErrCorrupt
	}
	return len(section), nil
}

// emptySection is the section of a cols value whose columns are all
// empty: seven zero counts.
var emptySection = make([]byte, 7)

// FuzzLoad feeds arbitrary bytes to Load three times: as a checkpoint
// file, and, without surrounding whitespace, as the payload of a
// version-3 envelope and of a version-4 envelope with an all-empty
// section, both with a correct CRC. Load must never panic, and no column
// it decodes may be longer than its input. A file it accepts is one the
// reference reader refLoad accepts too, and it decodes to the values the
// reference decoders give: encoding/json's for an array, refUnpack's for
// a packed token, refFill's for a section column, none of which may be
// longer than the section. A file in the canonical shape refLoad
// accepts, Load accepts. For a payload that is valid JSON the version-3
// decoder accepts exactly when the reference decoders do, and the
// version-4 decoder exactly when, besides, every column decodes empty;
// any other payload is ErrCorrupt.
func FuzzLoad(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "f.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var c cols
		err := Load(path, &c)
		if n := c.maxCap(); n > len(data) {
			t.Fatalf("a %d-byte file decoded into a column of capacity %d", len(data), n)
		}
		var m mirror
		secLen, refErr := refLoad(data, &m)
		if err == nil {
			if refErr != nil {
				t.Fatalf("Load accepted a file the reference reader rejects: %v", refErr)
			}
			if derr := diff(&c, &m); derr != nil {
				t.Fatal(derr)
			}
			if n := c.maxCap(); secLen > 0 && n > secLen {
				t.Fatalf("a %d-byte section decoded into a column of capacity %d", secLen, n)
			}
		} else if refErr == nil && canonical(data) {
			t.Fatalf("Load rejected a canonical file the reference reader accepts: %v", err)
		}

		// Save never pads a payload with whitespace.
		data = bytes.TrimFunc(data, func(r rune) bool { return r < utf8.RuneSelf && isSpace(byte(r)) })
		for _, version := range []int{3, 4} {
			var section []byte
			if version == 4 {
				section = emptySection
			}
			if err := os.WriteFile(path, sealVersion(version, data, section), 0o644); err != nil {
				t.Fatal(err)
			}
			c = cols{}
			err = Load(path, &c)
			if n := c.maxCap(); n > len(data) {
				t.Fatalf("a %d-byte payload decoded into a column of capacity %d", len(data), n)
			}
			if !json.Valid(data) {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("payload %q is not JSON: version-%d Load = %v, want ErrCorrupt", data, version, err)
				}
				continue
			}
			m = mirror{}
			merr := json.Unmarshal(data, &m)
			if version == 4 && merr == nil && m.maxLen() > 0 {
				merr = errors.New("a column has elements in the JSON")
			}
			if (err == nil) != (merr == nil) {
				t.Fatalf("payload %q in version %d: Load err=%v, reference err=%v", data, version, err, merr)
			}
			if err == nil {
				if derr := diff(&c, &m); derr != nil {
					t.Fatal(derr)
				}
			}
		}
	})
}

// maxLen is the length of the longest column of m.
func (m *mirror) maxLen() int {
	return max(len(m.Int), len(m.I64), len(m.I32), len(m.U64), len(m.U16), len(m.Tick), len(m.F))
}

// canonical reports whether data is the envelope encoding/json writes
// for its own fields, followed by a section from version 4 on: the only
// shape Save produces.
func canonical(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	var env envelope
	if dec.Decode(&env) != nil {
		return false
	}
	end := int(dec.InputOffset())
	out, err := json.Marshal(env)
	return err == nil && string(out) == string(data[:end]) && (env.Version >= 4 || end == len(data))
}
