package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type payload struct {
	Name  string    `json:"name"`
	Vals  []float64 `json:"vals"`
	Count int64     `json:"count"`
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.ckpt")
	in := payload{Name: "fig7/Chrono/seed42", Vals: []float64{1.5, -0.25, 1e300}, Count: 7}
	if err := Save(path, in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Load(path, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Count != in.Count || len(out.Vals) != 3 || out.Vals[2] != 1e300 {
		t.Fatalf("round trip mangled payload: %+v", out)
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	in := payload{Name: "x", Vals: []float64{0.1, 0.2, 0.3}}
	if err := Save(a, in); err != nil {
		t.Fatal(err)
	}
	if err := Save(b, in); err != nil {
		t.Fatal(err)
	}
	da, _ := os.ReadFile(a)
	db, _ := os.ReadFile(b)
	if string(da) != string(db) {
		t.Fatal("identical payloads produced different files")
	}
}

func TestLoadDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.ckpt")
	if err := Save(path, payload{Name: "victim", Count: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the payload region.
	i := strings.Index(string(data), "victim")
	if i < 0 {
		t.Fatal("payload not found in envelope")
	}
	data[i] = 'w'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Load(path, &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted file loaded: err=%v", err)
	}

	// Truncation — a torn write — must also read as corruption.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Load(path, &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated file loaded: err=%v", err)
	}

	// Not a checkpoint at all.
	if err := os.WriteFile(path, []byte(`{"magic":"other","version":1,"crc":0,"payload":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Load(path, &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign file loaded: err=%v", err)
	}
}

func TestLoadRejectsFutureVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.ckpt")
	if err := Save(path, payload{}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	bumped := strings.Replace(string(data), fmt.Sprintf(`"version":%d`, Version), `"version":999`, 1)
	if bumped == string(data) {
		t.Fatal("version field not found")
	}
	if err := os.WriteFile(path, []byte(bumped), 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Load(path, &out); !errors.Is(err, ErrVersion) {
		t.Fatalf("future-version file loaded: err=%v", err)
	}
}

func TestWriteFileAtomicReplacesAndCleansUp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	if err := WriteFileAtomic(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("content %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("stray temp files left behind: %v", entries)
	}
}

// envelope is the container's JSON object as encoding/json sees it;
// Columns is absent before version 4. refSeal, json.Marshal of it
// followed by the section, is the reference writer: every file Save
// writes must be byte-identical to its output.
type envelope struct {
	Magic   string          `json:"magic"`
	Version int             `json:"version"`
	CRC     uint32          `json:"crc"`
	Columns *int            `json:"columns,omitempty"`
	Payload json.RawMessage `json:"payload"`
}

// refSeal is the version-4 envelope of cleared, the payload with its
// columns set to nil, and of cols, its columns in field order, each an
// integer or float64 slice.
func refSeal(t testing.TB, cleared any, cols ...any) []byte {
	t.Helper()
	raw, err := json.Marshal(cleared)
	if err != nil {
		t.Fatal(err)
	}
	section := refSection(cols...)
	n := len(section)
	crc := crc32.Update(crc32.ChecksumIEEE(raw), crc32.IEEETable, section)
	data, err := json.Marshal(envelope{Magic: Magic, Version: Version, CRC: crc, Columns: &n, Payload: raw})
	if err != nil {
		t.Fatal(err)
	}
	return append(data, section...)
}

// refSection is the section grammar written plainly: per column a
// uvarint count, then binary.AppendVarint of each element's wrapped
// difference from the one before it.
func refSection(cols ...any) []byte {
	var sec []byte
	for _, c := range cols {
		var vals []uint64
		switch c := c.(type) {
		case []int64:
			for _, v := range c {
				vals = append(vals, uint64(v))
			}
		case []float64:
			for _, v := range c {
				vals = append(vals, math.Float64bits(v))
			}
		default:
			panic(fmt.Sprintf("refSection: column of type %T", c))
		}
		sec = binary.AppendUvarint(sec, uint64(len(vals)))
		var prev uint64
		for _, v := range vals {
			sec = binary.AppendVarint(sec, int64(v-prev))
			prev = v
		}
	}
	return sec
}

// sealVersion is the envelope of a payload and section as version v
// writes it; before version 4 there is no section.
func sealVersion(v int, payload, section []byte) []byte {
	crc := crc32.Update(crc32.ChecksumIEEE(payload), crc32.IEEETable, section)
	if v < 4 {
		return []byte(fmt.Sprintf(`{"magic":%q,"version":%d,"crc":%d,"payload":%s}`, Magic, v, crc, payload))
	}
	head := fmt.Sprintf(`{"magic":%q,"version":%d,"crc":%d,"columns":%d,"payload":%s}`, Magic, v, crc, len(section), payload)
	return append([]byte(head), section...)
}

func TestSaveMatchesEnvelopeMarshal(t *testing.T) {
	type nested struct {
		S   string          `json:"s"`
		Raw json.RawMessage `json:"raw,omitempty"`
		Nil json.RawMessage `json:"nil"`
		I   Ints[int64]     `json:"i"`
		F   Floats          `json:"f,omitempty"`
	}
	type tc struct {
		payload, cleared any
		cols             []any
	}
	plain := func(n nested) tc { return tc{n, n, []any{[]int64(nil), []float64(nil)}} }
	cases := map[string]tc{
		"html":         plain(nested{S: "<a href=\"x\">&amp;</a>"}),
		"line-sep":     plain(nested{S: "a\u2028b\u2029c", Raw: json.RawMessage("\"\u2028\"")}),
		"invalid-utf8": plain(nested{S: "bad \xff\xfe byte"}),
		"nested-raw":   plain(nested{Raw: json.RawMessage(` { "k" : [1, 2,	3], "h": "<&> " } `)}),
		"raw-bad-utf8": plain(nested{Raw: json.RawMessage("\"\xff<\"")}),
		"columns": {
			nested{I: Ints[int64]{-1, 0, 1 << 62}, F: Floats{-0.0, 1e-300, 0.1}},
			nested{},
			[]any{[]int64{-1, 0, 1 << 62}, []float64{-0.0, 1e-300, 0.1}},
		},
		"null":     {nil, nil, nil},
		"raw-null": {json.RawMessage("null"), json.RawMessage("null"), nil},
	}
	dir := t.TempDir()
	for name, c := range cases {
		path := filepath.Join(dir, name+".ckpt")
		if err := Save(path, c.payload); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := refSeal(t, c.cleared, c.cols...); !bytes.Equal(got, want) {
			t.Errorf("%s: Save wrote\n%q\nthe reference writes\n%q", name, got, want)
		}
		out := reflect.ValueOf(new(json.RawMessage))
		if c.payload != nil {
			out = reflect.New(reflect.TypeOf(c.payload))
		}
		if err := Load(path, out.Interface()); err != nil {
			t.Errorf("%s: Load: %v", name, err)
		}
	}
}

func TestLoadRejectsOtherShapes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.ckpt")
	in := payload{Name: "shape", Vals: []float64{1}}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	crc := crc32.ChecksumIEEE(raw)
	zero := 0
	env := envelope{Magic: Magic, Version: Version, CRC: crc, Columns: &zero, Payload: raw}
	indented, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	good := refSeal(t, in)
	for name, data := range map[string][]byte{
		"indented":         indented,
		"trailing-newline": append(append([]byte(nil), good...), '\n'),
		"field-order":      []byte(fmt.Sprintf(`{"version":%d,"magic":%q,"crc":%d,"columns":0,"payload":%s}`, Version, Magic, crc, raw)),
		"no-columns":       []byte(fmt.Sprintf(`{"magic":%q,"version":%d,"crc":%d,"payload":%s}`, Magic, Version, crc, raw)),
		"padded-payload":   []byte(fmt.Sprintf(`{"magic":%q,"version":%d,"crc":%d,"columns":0,"payload": %s}`, Magic, Version, crc32.ChecksumIEEE(append([]byte(" "), raw...)), raw)),
		"padded-crc":       []byte(fmt.Sprintf(`{"magic":%q,"version":%d,"crc":0%d,"columns":0,"payload":%s}`, Magic, Version, crc, raw)),
		"padded-columns":   []byte(fmt.Sprintf(`{"magic":%q,"version":%d,"crc":%d,"columns":00,"payload":%s}`, Magic, Version, crc, raw)),
		"huge-columns":     []byte(fmt.Sprintf(`{"magic":%q,"version":%d,"crc":%d,"columns":18446744073709551615,"payload":%s}`, Magic, Version, crc, raw)),
		"section-too-long": []byte(fmt.Sprintf(`{"magic":%q,"version":%d,"crc":%d,"columns":999,"payload":%s}`, Magic, Version, crc, raw)),
		"no-payload":       []byte(fmt.Sprintf(`{"magic":%q,"version":%d,"crc":0,"columns":0,"payload":}`, Magic, Version)),
		"payload-not-json": sealVersion(Version, []byte("{x}"), nil),
		"stray-section":    sealVersion(Version, raw, []byte{0}),
		"empty":            nil,
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var out payload
		if err := Load(path, &out); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Load = %v, want ErrCorrupt", name, err)
		}
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Load(path, &out); err != nil || out.Name != "shape" {
		t.Fatalf("canonical file: %+v, %v", out, err)
	}
}

func TestLoadRejectsVersionOne(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v1.ckpt")
	raw := []byte(`{"name":"old"}`)
	data := fmt.Sprintf(`{"magic":%q,"version":1,"crc":%d,"payload":%s}`, Magic, crc32.ChecksumIEEE(raw), raw)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Load(path, &out); !errors.Is(err, ErrVersion) {
		t.Fatalf("version-1 file: err=%v, want ErrVersion", err)
	}
}
