// Package checkpoint is the durable-state envelope used by resumable
// sweeps: a versioned, checksummed JSON container written with the
// write-to-temp-then-rename discipline, so a reader never observes a
// half-written file and a torn write is detected rather than trusted.
//
// The payload format is plain JSON. Go's encoding/json is deterministic —
// struct fields marshal in declaration order and floats use the shortest
// round-trippable representation — so identical state produces identical
// bytes, which the kill-and-resume fence relies on.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Magic identifies a checkpoint envelope.
const Magic = "chrono-checkpoint"

// Version is the current envelope format version. Bump it on any
// incompatible payload change; Load rejects mismatches with ErrVersion so
// a resumed run falls back to re-execution instead of misinterpreting old
// state.
const Version = 2

// Sentinel errors, matched with errors.Is.
var (
	// ErrCorrupt marks a failed magic or checksum validation: the file is
	// truncated, torn, or not a checkpoint at all.
	ErrCorrupt = errors.New("checkpoint: corrupt or not a checkpoint file")
	// ErrVersion marks an envelope written by an incompatible format
	// version.
	ErrVersion = errors.New("checkpoint: incompatible format version")
)

// envelope is the on-disk container.
type envelope struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	// CRC is the IEEE CRC-32 of the raw payload bytes.
	CRC     uint32          `json:"crc"`
	Payload json.RawMessage `json:"payload"`
}

// Save marshals payload into a versioned, checksummed envelope and writes
// it atomically: the bytes land in a temporary file in the target
// directory, are synced, and are renamed over path. A crash at any point
// leaves either the previous file or the complete new one.
func Save(path string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal payload: %w", err)
	}
	env := envelope{Magic: Magic, Version: Version, CRC: crc32.ChecksumIEEE(raw), Payload: raw}
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal envelope: %w", err)
	}
	return WriteFileAtomic(path, data)
}

// Load reads an envelope, validates magic, version, and checksum, and
// unmarshals the payload into out.
func Load(path string, out any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	if env.Magic != Magic {
		return fmt.Errorf("%w: %s: bad magic %q", ErrCorrupt, path, env.Magic)
	}
	if env.Version != Version {
		return fmt.Errorf("%w: %s: file version %d, supported %d", ErrVersion, path, env.Version, Version)
	}
	if crc := crc32.ChecksumIEEE(env.Payload); crc != env.CRC {
		return fmt.Errorf("%w: %s: payload CRC %08x, recorded %08x", ErrCorrupt, path, crc, env.CRC)
	}
	if err := json.Unmarshal(env.Payload, out); err != nil {
		return fmt.Errorf("checkpoint: unmarshal payload of %s: %w", path, err)
	}
	return nil
}

// WriteFileAtomic writes data to path through a same-directory temporary
// file, fsync, and rename — the manifest-update discipline every durable
// artifact of a sweep uses.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		if rmErr := os.Remove(tmpName); rmErr != nil && !os.IsNotExist(rmErr) {
			// Best effort: the stray temp file is harmless and the original
			// error is the one worth surfacing.
			_ = rmErr
		}
	}
	if _, err := tmp.Write(data); err != nil {
		if cerr := tmp.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		if cerr := tmp.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		cleanup()
		return err
	}
	return nil
}
