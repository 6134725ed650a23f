// Package checkpoint is the durable-state envelope used by resumable
// sweeps and chronod runs: a versioned, checksummed JSON container
// written with the write-to-temp-then-rename discipline, so a reader
// never observes a half-written file and a torn write is detected rather
// than trusted.
//
// The payload is JSON, with its number columns (Ints, Floats) packed
// into one base64 string token each (columns.go). Go's encoding/json is
// deterministic — struct fields marshal in declaration order and floats
// use the shortest round-trippable representation — and a packed column
// has one encoding, so identical state produces identical bytes, which
// the kill-and-resume fence relies on.
//
// Each direction makes one pass over the payload. Save marshals it once
// and writes a fixed header in front of it, which gives exactly the bytes
// encoding/json gives for the whole envelope. Load parses that header by
// hand, checks the CRC over the payload sub-slice and unmarshals it once;
// any other envelope shape is ErrCorrupt. The number columns of a
// payload decode without reflection.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
)

// Magic identifies a checkpoint envelope.
const Magic = "chrono-checkpoint"

// Version is the envelope format version Save writes. Bump it on any
// incompatible payload change; Load rejects other versions with
// ErrVersion so a resumed run falls back to re-execution instead of
// misinterpreting old state.
//
// Version 3 packs the number columns (columns.go). Load also reads
// version 2, whose columns are JSON arrays, so chronod records and
// snapshots and durable sweep records written before it still load.
const Version = 3

// oldestVersion is the oldest envelope version Load reads.
const oldestVersion = 2

// Sentinel errors, matched with errors.Is.
var (
	// ErrCorrupt marks a failed magic, shape or checksum validation: the
	// file is truncated, torn, or not a checkpoint at all.
	ErrCorrupt = errors.New("checkpoint: corrupt or not a checkpoint file")
	// ErrVersion marks an envelope written by an incompatible format
	// version.
	ErrVersion = errors.New("checkpoint: incompatible format version")
)

// The envelope is one JSON object with four fields in this order:
//
//	{"magic":"chrono-checkpoint","version":3,"crc":N,"payload":P}
//
// N is the IEEE CRC-32 of the payload bytes P, in decimal. These are
// the bytes json.Marshal gives for the struct with those fields when P
// is already compact json.Marshal output.
const (
	headMagic   = `{"magic":"` + Magic + `","version":`
	headCRC     = `,"crc":`
	headPayload = `,"payload":`
)

// headRoom is the most bytes the header takes: its three fixed parts
// plus the version and the CRC in decimal (20 digits hold both).
const headRoom = len(headMagic) + len(headCRC) + len(headPayload) + 20

// Save marshals payload into a versioned, checksummed envelope and writes
// it atomically: the bytes land in a temporary file in the target
// directory, are synced, and are renamed over path. A crash at any point
// leaves either the previous file or the complete new one.
//
// The payload is marshalled once, into a buffer that starts with
// headRoom bytes of space for the header, so the envelope is built in
// place and never copied.
func Save(path string, payload any) error {
	buf := bytes.NewBuffer(make([]byte, headRoom))
	// Encode writes exactly json.Marshal's bytes, then a newline.
	if err := json.NewEncoder(buf).Encode(payload); err != nil {
		return fmt.Errorf("checkpoint: marshal payload: %w", err)
	}
	return WriteFileAtomic(path, seal(buf.Bytes()))
}

// seal turns buf into the envelope in place and returns it, a sub-slice
// of buf. buf holds headRoom bytes of space, the compact JSON payload and
// one byte of slack: the header is written right in front of the
// payload, and the slack byte becomes the closing brace.
func seal(buf []byte) []byte {
	payload := buf[headRoom : len(buf)-1]
	head := make([]byte, 0, headRoom)
	head = append(head, headMagic...)
	head = strconv.AppendInt(head, Version, 10)
	head = append(head, headCRC...)
	head = strconv.AppendUint(head, uint64(crc32.ChecksumIEEE(payload)), 10)
	head = append(head, headPayload...)
	start := headRoom - len(head)
	copy(buf[start:], head)
	buf[len(buf)-1] = '}'
	return buf[start:]
}

// Load reads an envelope, validates magic, version, and checksum, and
// unmarshals the payload into out.
func Load(path string, out any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	payload, err := unseal(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := json.Unmarshal(payload, out); err != nil {
		var syntax *json.SyntaxError
		if errors.As(err, &syntax) {
			// The CRC matched, but no Save writes a payload that is not JSON.
			return fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
		}
		return fmt.Errorf("checkpoint: unmarshal payload of %s: %w", path, err)
	}
	return nil
}

// unseal validates the envelope in data and returns its payload, a
// sub-slice of data. The version is checked as soon as it is read, so a
// file of another version is ErrVersion whatever follows it.
func unseal(data []byte) ([]byte, error) {
	rest, ok := bytes.CutPrefix(data, []byte(headMagic))
	if !ok {
		return nil, fmt.Errorf("%w: no %s header", ErrCorrupt, Magic)
	}
	field, rest, ok := bytes.Cut(rest, []byte(headCRC))
	if !ok {
		return nil, fmt.Errorf("%w: no crc field", ErrCorrupt)
	}
	version, err := strconv.Atoi(string(field))
	if err != nil || strconv.Itoa(version) != string(field) {
		return nil, fmt.Errorf("%w: bad version %.32q", ErrCorrupt, field)
	}
	if version < oldestVersion || version > Version {
		return nil, fmt.Errorf("%w: file version %d, supported %d to %d", ErrVersion, version, oldestVersion, Version)
	}
	field, rest, ok = bytes.Cut(rest, []byte(headPayload))
	if !ok {
		return nil, fmt.Errorf("%w: no payload field", ErrCorrupt)
	}
	crc, err := strconv.ParseUint(string(field), 10, 32)
	if err != nil || strconv.FormatUint(crc, 10) != string(field) {
		return nil, fmt.Errorf("%w: bad crc %.32q", ErrCorrupt, field)
	}
	payload, ok := bytes.CutSuffix(rest, []byte("}"))
	if !ok || len(payload) == 0 || isSpace(payload[0]) || isSpace(payload[len(payload)-1]) {
		return nil, fmt.Errorf("%w: payload not followed by the closing brace", ErrCorrupt)
	}
	if sum := crc32.ChecksumIEEE(payload); uint64(sum) != crc {
		return nil, fmt.Errorf("%w: payload CRC %08x, recorded %08x", ErrCorrupt, sum, crc)
	}
	return payload, nil
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
