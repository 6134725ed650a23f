package checkpoint

import (
	"errors"
	"fmt"
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
