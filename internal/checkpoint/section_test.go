package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

type leaf struct {
	Name string      `json:"name"`
	C    Ints[int32] `json:"c"`
}

// promoted is unexported: encoding/json still promotes its fields.
type promoted struct {
	E Floats `json:"e"`
}

// deep holds columns at every place the walk goes: directly, behind a
// pointer, in an array, in a slice of structs and in an embedded struct,
// plus one inside a self-marshalling value, which stays in the JSON.
type deep struct {
	promoted
	Top  Ints[int64]     `json:"top"`
	P    *leaf           `json:"p"`
	NilP *leaf           `json:"nil_p"`
	A    [2]leaf         `json:"a"`
	S    []leaf          `json:"s"`
	Opt  Ints[uint16]    `json:"opt,omitempty"`
	Zero Ints[tick]      `json:"zero"`
	Raw  json.RawMessage `json:"raw"`
	Skip Ints[int]       `json:"-"`
	priv Ints[int]
}

func newDeep() deep {
	return deep{
		promoted: promoted{E: Floats{0.5, math.Copysign(0, -1), -1e300}},
		Top:      Ints[int64]{math.MinInt64, 0, math.MaxInt64},
		P:        &leaf{Name: "p", C: Ints[int32]{7, 8, 9}},
		A:        [2]leaf{{Name: "a0", C: Ints[int32]{1}}, {Name: "a1"}},
		S:        []leaf{{Name: "s0", C: Ints[int32]{-5, 5}}, {Name: "s1", C: Ints[int32]{math.MinInt32}}},
		Opt:      Ints[uint16]{math.MaxUint16, 0},
		Zero:     Ints[tick]{},
		Raw:      json.RawMessage(`"AAICAg"`),
	}
}

// TestSectionRoundTrip saves a payload by value and by pointer. Save
// leaves the caller's value as it was, the JSON holds an empty token
// (or nothing, for omitempty) where each column was, and Load gives the
// columns back.
func TestSectionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for name, payload := range map[string]func(*deep) any{
		"value":   func(d *deep) any { return *d },
		"pointer": func(d *deep) any { return d },
	} {
		path := filepath.Join(dir, name+".ckpt")
		in := newDeep()
		in.Skip, in.priv = Ints[int]{1}, Ints[int]{2}
		if err := Save(path, payload(&in)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := newDeep()
		want.Skip, want.priv = Ints[int]{1}, Ints[int]{2}
		if !reflect.DeepEqual(in, want) {
			t.Fatalf("%s: Save changed its payload to %+v", name, in)
		}

		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, tok := range []string{`"top":""`, `"e":""`, `"c":""`, `"zero":""`, `"raw":"AAICAg"`} {
			if !bytes.Contains(data, []byte(tok)) {
				t.Errorf("%s: the JSON lacks %s", name, tok)
			}
		}
		if bytes.Contains(data, []byte(`"opt"`)) {
			t.Errorf("%s: the JSON holds the omitempty column", name)
		}

		var out deep
		if err := Load(path, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want.Skip, want.priv = nil, nil
		want.A[1].C = Ints[int32]{} // a nil column reads back empty, as in version 3
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("%s: loaded\n%+v\nwant\n%+v", name, out, want)
		}
		if !math.Signbit(out.E[1]) {
			t.Fatalf("%s: -0 loaded as %v", name, out.E[1])
		}
	}
}

// TestSaveRefusesHiddenColumns: a column inside a map or behind an
// interface has no place in the walk, so Save refuses it, and leaves the
// payload as it was. An empty map and an interface holding no column
// save.
func TestSaveRefusesHiddenColumns(t *testing.T) {
	type inMap struct {
		Top Ints[int64]     `json:"top"`
		M   map[string]leaf `json:"m"`
	}
	type inIface struct {
		Top Ints[int64] `json:"top"`
		X   any         `json:"x"`
	}
	path := filepath.Join(t.TempDir(), "x.ckpt")
	m := &inMap{Top: Ints[int64]{1}, M: map[string]leaf{"k": {C: Ints[int32]{1}}}}
	if err := Save(path, m); !errors.Is(err, errInMap) {
		t.Fatalf("column in a map: Save = %v", err)
	}
	for _, x := range []any{leaf{C: Ints[int32]{1}}, &leaf{}, []leaf{{}}} {
		if err := Save(path, inIface{X: x}); !errors.Is(err, errInIface) {
			t.Fatalf("column behind an interface (%T): Save = %v", x, err)
		}
	}
	if len(m.Top) != 1 {
		t.Fatal("a refused Save changed its payload")
	}
	for _, ok := range []any{inMap{Top: Ints[int64]{1}, M: map[string]leaf{}}, inIface{X: 5}, inIface{}} {
		if err := Save(path, ok); err != nil {
			t.Fatalf("%+v: %v", ok, err)
		}
	}
}

// TestSaveRestoresColumnsOnError: a NaN fails the save after the
// marshal, and every column is back in place.
func TestSaveRestoresColumnsOnError(t *testing.T) {
	in := newDeep()
	in.S[1].C = nil
	in.E[0] = math.NaN()
	if err := Save(filepath.Join(t.TempDir(), "nan.ckpt"), &in); err == nil {
		t.Fatal("Save of a NaN succeeded")
	}
	if len(in.Top) != 3 || len(in.P.C) != 3 || len(in.S[0].C) != 2 || in.S[1].C != nil || len(in.E) != 3 {
		t.Fatalf("columns after a failed Save: %+v", in)
	}
}

// badSections are version-4 files of a cols payload whose section or
// column tokens are wrong; each is ErrCorrupt, and none makes Load
// allocate for a count the section cannot hold. The valid file they are
// made from is "valid". The fuzz corpus holds each of them.
func badSections(t testing.TB) map[string][]byte {
	raw := []byte(`{"int":"","i64":"","i32":"","u64":"","u16":"","tick":"","f":""}`)
	// Seven columns: int {1, 2}, the rest empty but f {1.5}.
	good := []byte{2, 2, 2, 0, 0, 0, 0, 0, 1}
	good = append(good, refSection([]float64{1.5})[1:]...)
	flipped := sealVersion(4, raw, good)
	flipped[len(flipped)-1] ^= 1
	return map[string][]byte{
		"valid":              sealVersion(4, raw, good),
		"section-truncated":  sealVersion(4, raw, good[:len(good)-1]),
		"section-count-past": sealVersion(4, raw, append(binary.AppendUvarint(nil, 1<<22), 2, 2, 0, 0, 0, 0, 0, 0)),
		"section-nan":        sealVersion(4, raw, append([]byte{0, 0, 0, 0, 0, 0, 1}, refSection([]float64{math.NaN()})[1:]...)),
		"section-u16-range":  sealVersion(4, raw, []byte{0, 0, 0, 0, 1, 0x80, 0x80, 0x08, 0, 0}),
		"section-trailing":   sealVersion(4, raw, append(append([]byte(nil), good...), 0)),
		"section-flipped":    flipped,
		"section-overlong":   sealVersion(4, raw, append([]byte{1}, append(bytes.Repeat([]byte{0x80}, 10), 1, 0, 0, 0, 0, 0, 0)...)),
		"section-token":      sealVersion(4, []byte(strings.Replace(string(raw), `"i64":""`, `"i64":"AAI"`, 1)), good),
	}
}

func TestLoadRejectsBadSections(t *testing.T) {
	dir := t.TempDir()
	for name, data := range badSections(t) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var c cols
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Load(path, &c)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: Load of %d bytes allocated %d", name, len(data), grew)
		}
		if name == "valid" {
			if err != nil || !reflect.DeepEqual(c.Int, Ints[int]{1, 2}) || !reflect.DeepEqual(c.F, Floats{1.5}) {
				t.Fatalf("valid: %+v, %v", c, err)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Load = %v, want ErrCorrupt", name, err)
		}
	}
}
