package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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

// envelope is the on-disk container as encoding/json sees it. refSeal,
// json.Marshal of it, is the writer Save replaced: every file Save writes
// must be byte-identical to its output, so files written before and after
// that change load alike.
type envelope struct {
	Magic   string          `json:"magic"`
	Version int             `json:"version"`
	CRC     uint32          `json:"crc"`
	Payload json.RawMessage `json:"payload"`
}

func refSeal(t testing.TB, payload any) []byte {
	t.Helper()
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(envelope{Magic: Magic, Version: Version, CRC: crc32.ChecksumIEEE(raw), Payload: raw})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// refLoad is the reader Load replaced: the whole file through
// encoding/json, then magic, version and CRC.
func refLoad(data []byte, out any) error {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if env.Magic != Magic {
		return ErrCorrupt
	}
	if env.Version < oldestVersion || env.Version > Version {
		return ErrVersion
	}
	if crc32.ChecksumIEEE(env.Payload) != env.CRC {
		return ErrCorrupt
	}
	return json.Unmarshal(env.Payload, out)
}

func TestSaveMatchesEnvelopeMarshal(t *testing.T) {
	type nested struct {
		S   string          `json:"s"`
		Raw json.RawMessage `json:"raw,omitempty"`
		Nil json.RawMessage `json:"nil"`
		I   Ints[int64]     `json:"i"`
		F   Floats          `json:"f,omitempty"`
	}
	payloads := map[string]any{
		"html":         nested{S: "<a href=\"x\">&amp;</a>"},
		"line-sep":     nested{S: "a\u2028b\u2029c", Raw: json.RawMessage("\"\u2028\"")},
		"invalid-utf8": nested{S: "bad \xff\xfe byte"},
		"nested-raw":   nested{Raw: json.RawMessage(` { "k" : [1, 2,	3], "h": "<&> " } `)},
		"raw-bad-utf8": nested{Raw: json.RawMessage("\"\xff<\"")},
		"columns":      nested{I: Ints[int64]{-1, 0, 1 << 62}, F: Floats{-0.0, 1e-300, 0.1}},
		"null":         nil,
		"raw-null":     json.RawMessage("null"),
	}
	dir := t.TempDir()
	for name, p := range payloads {
		path := filepath.Join(dir, name+".ckpt")
		if err := Save(path, p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := refSeal(t, p); !bytes.Equal(got, want) {
			t.Errorf("%s: Save wrote\n%s\nencoding/json writes\n%s", name, got, want)
		}
		var out json.RawMessage
		if err := Load(path, &out); err != nil {
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
	env := envelope{Magic: Magic, Version: Version, CRC: crc, Payload: raw}
	indented, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	good := refSeal(t, in)
	for name, data := range map[string][]byte{
		"indented":         indented,
		"trailing-newline": append(append([]byte(nil), good...), '\n'),
		"field-order":      []byte(fmt.Sprintf(`{"version":%d,"magic":%q,"crc":%d,"payload":%s}`, Version, Magic, crc, raw)),
		"padded-payload":   []byte(fmt.Sprintf(`{"magic":%q,"version":%d,"crc":%d,"payload": %s}`, Magic, Version, crc32.ChecksumIEEE(append([]byte(" "), raw...)), raw)),
		"padded-crc":       []byte(fmt.Sprintf(`{"magic":%q,"version":%d,"crc":0%d,"payload":%s}`, Magic, Version, crc, raw)),
		"no-payload":       []byte(fmt.Sprintf(`{"magic":%q,"version":%d,"crc":0,"payload":}`, Magic, Version)),
		"payload-not-json": []byte(fmt.Sprintf(`{"magic":%q,"version":%d,"crc":%d,"payload":{x}}`, Magic, Version, crc32.ChecksumIEEE([]byte("{x}")))),
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
