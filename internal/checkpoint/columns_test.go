package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unicode/utf8"
)

// tick stands for a named element type such as simclock.Time.
type tick int64

// cols holds one column of every element kind the engine's snapshot
// uses; mirror is the same struct with plain slices, which encoding/json
// decodes by reflection. The column decoder must agree with it.
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
	Int  []int     `json:"int"`
	I64  []int64   `json:"i64"`
	I32  []int32   `json:"i32"`
	U64  []uint64  `json:"u64"`
	U16  []uint16  `json:"u16"`
	Tick []tick    `json:"tick"`
	F    []float64 `json:"f"`
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
		{"int", []int(c.Int), m.Int},
		{"i64", []int64(c.I64), m.I64},
		{"i32", []int32(c.I32), m.I32},
		{"u64", []uint64(c.U64), m.U64},
		{"u16", []uint16(c.U16), m.U16},
		{"tick", []tick(c.Tick), m.Tick},
		{"f", bits(c.F), bits(m.F)},
	} {
		if !reflect.DeepEqual(col.got, col.want) {
			return fmt.Errorf("column %s: decoded %#v, encoding/json gives %#v", col.name, col.got, col.want)
		}
	}
	return nil
}

// sameDecode unmarshals payload into fresh cols and mirror values and
// reports whether both accept it alike and, if so, to the same values.
func sameDecode(payload []byte) error {
	var c cols
	var m mirror
	cerr := json.Unmarshal(payload, &c)
	merr := json.Unmarshal(payload, &m)
	if (cerr == nil) != (merr == nil) {
		return fmt.Errorf("%q: columns err=%v, encoding/json err=%v", payload, cerr, merr)
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
	m := mirror{Int: make([]int, 2, 4), F: []float64{9, 8}}
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

// FuzzLoad feeds arbitrary bytes to Load twice: as a checkpoint file,
// and, without surrounding whitespace, as the payload of an envelope
// with a correct CRC. Load must never
// panic. A file it accepts is one the encoding/json reader it replaced
// accepts too, and it decodes to the values encoding/json gives for
// plain slices; a file in the canonical shape that reader accepts, Load
// accepts. For a payload that is valid JSON the column decoder accepts
// exactly when encoding/json does; any other payload is ErrCorrupt.
func FuzzLoad(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "f.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var c cols
		err := Load(path, &c)
		var m mirror
		refErr := refLoad(data, &m)
		if err == nil {
			if refErr != nil {
				t.Fatalf("Load accepted a file the encoding/json reader rejects: %v", refErr)
			}
			if derr := diff(&c, &m); derr != nil {
				t.Fatal(derr)
			}
		} else if refErr == nil && canonical(data) {
			t.Fatalf("Load rejected a canonical file the encoding/json reader accepts: %v", err)
		}

		// Save never pads a payload with whitespace.
		data = bytes.TrimFunc(data, func(r rune) bool { return r < utf8.RuneSelf && isSpace(byte(r)) })
		if err := os.WriteFile(path, seal(data), 0o644); err != nil {
			t.Fatal(err)
		}
		c = cols{}
		err = Load(path, &c)
		if !json.Valid(data) {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("payload %q is not JSON: Load = %v, want ErrCorrupt", data, err)
			}
			return
		}
		m = mirror{}
		merr := json.Unmarshal(data, &m)
		if (err == nil) != (merr == nil) {
			t.Fatalf("payload %q: Load err=%v, encoding/json err=%v", data, err, merr)
		}
		if err == nil {
			if derr := diff(&c, &m); derr != nil {
				t.Fatal(derr)
			}
		}
	})
}

// canonical reports whether data is the envelope encoding/json writes
// for its own fields: the only shape Save produces.
func canonical(data []byte) bool {
	var env envelope
	if json.Unmarshal(data, &env) != nil {
		return false
	}
	out, err := json.Marshal(env)
	return err == nil && string(out) == string(data)
}
