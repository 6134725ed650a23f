// Package checkpoint is the durable-state envelope used by resumable
// sweeps and chronod runs: a versioned, checksummed container written
// with the write-to-temp-then-rename discipline, so a reader never
// observes a half-written file and a torn write is detected rather than
// trusted.
//
// The payload is JSON, except for its number columns (Ints, Floats),
// which follow it as one binary section of zigzag-delta varints
// (section.go). Go's encoding/json is deterministic — struct fields
// marshal in declaration order and floats use the shortest
// round-trippable representation — and a column has one encoding, so
// identical state produces identical bytes, which the kill-and-resume
// fence relies on.
//
// Each direction makes one pass over the payload. Save marshals it once
// with its columns set aside, writes a fixed header in front of it and
// the columns' section after it. Load parses that header by hand, checks
// the CRC over the payload and section sub-slices, unmarshals the
// payload once and fills the columns from the section; any other
// envelope shape is ErrCorrupt. The columns are found by one walk per
// payload, and each element decodes without reflection.
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
// Version 4 moves the number columns out of the JSON into the binary
// section. Load also reads version 3, whose columns are packed string
// tokens, and version 2, whose columns are JSON arrays (columns.go), so
// chronod records and snapshots and durable sweep records written
// before it still load.
const Version = 4

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

// The envelope is one JSON object with five fields in this order,
// followed by the section:
//
//	{"magic":"chrono-checkpoint","version":4,"crc":N,"columns":L,"payload":P}S
//
// P is compact json.Marshal output, S is exactly L bytes, and N is the
// IEEE CRC-32 of P followed by S, in decimal. Versions 2 and 3 have no
// columns field and no section, and their CRC covers P alone.
const (
	headMagic   = `{"magic":"` + Magic + `","version":`
	headCRC     = `,"crc":`
	headColumns = `,"columns":`
	headPayload = `,"payload":`
)

// headRoom is the most bytes the header takes: its fixed parts plus the
// version, the CRC and the section length in decimal (20 digits hold
// each).
const headRoom = len(headMagic) + len(headCRC) + len(headColumns) + len(headPayload) + 3*20

// Save marshals payload into a versioned, checksummed envelope and writes
// it atomically: the bytes land in a temporary file in the target
// directory, are synced, and are renamed over path. A crash at any point
// leaves either the previous file or the complete new one.
//
// The envelope is built in one buffer: headRoom bytes of space for the
// header, the payload, marshalled once with its columns set to nil, and
// then the section. The columns are put back before Save returns, so the
// caller's value is unchanged.
func Save(path string, payload any) error {
	root, cols, err := findColumns(payload)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal payload: %w", err)
	}
	buf := bytes.NewBuffer(make([]byte, headRoom))
	// Encode writes exactly json.Marshal's bytes, then a newline.
	err = withColumnsCleared(cols, func() error {
		if len(cols) > 0 {
			// A copy taken now, with the columns cleared.
			payload = root.Interface()
		}
		return json.NewEncoder(buf).Encode(payload)
	})
	if err != nil {
		return fmt.Errorf("checkpoint: marshal payload: %w", err)
	}
	data := buf.Bytes()
	payloadEnd := len(data) - 1
	if data, err = appendColumns(data, cols); err != nil {
		return fmt.Errorf("checkpoint: marshal payload: %w", err)
	}
	return WriteFileAtomic(path, seal(data, payloadEnd))
}

// seal turns buf into the envelope in place and returns it, a sub-slice
// of buf. buf holds headRoom bytes of space, the compact JSON payload,
// one byte of slack at payloadEnd and the section: the header is written
// right in front of the payload, and the slack byte becomes the closing
// brace.
func seal(buf []byte, payloadEnd int) []byte {
	payload, section := buf[headRoom:payloadEnd], buf[payloadEnd+1:]
	crc := crc32.Update(crc32.ChecksumIEEE(payload), crc32.IEEETable, section)
	head := make([]byte, 0, headRoom)
	head = append(head, headMagic...)
	head = strconv.AppendInt(head, Version, 10)
	head = append(head, headCRC...)
	head = strconv.AppendUint(head, uint64(crc), 10)
	head = append(head, headColumns...)
	head = strconv.AppendInt(head, int64(len(section)), 10)
	head = append(head, headPayload...)
	start := headRoom - len(head)
	copy(buf[start:], head)
	buf[payloadEnd] = '}'
	return buf[start:]
}

// Load reads an envelope, validates magic, version, and checksum,
// unmarshals the payload into out and fills out's columns from the
// section.
func Load(path string, out any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	version, payload, section, err := unseal(data)
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
	if version < 4 {
		return nil
	}
	_, cols, err := findColumns(out)
	if err == nil {
		err = fillColumns(cols, section)
	}
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	return nil
}

// unseal validates the envelope in data and returns its version, its
// payload and its section, sub-slices of data. The version is checked
// as soon as it is read, so a file of another version is ErrVersion
// whatever follows it.
func unseal(data []byte) (version int, payload, section []byte, err error) {
	rest, ok := bytes.CutPrefix(data, []byte(headMagic))
	if !ok {
		return 0, nil, nil, fmt.Errorf("%w: no %s header", ErrCorrupt, Magic)
	}
	field, rest, ok := bytes.Cut(rest, []byte(headCRC))
	if !ok {
		return 0, nil, nil, fmt.Errorf("%w: no crc field", ErrCorrupt)
	}
	version, err = strconv.Atoi(string(field))
	if err != nil || strconv.Itoa(version) != string(field) {
		return 0, nil, nil, fmt.Errorf("%w: bad version %.32q", ErrCorrupt, field)
	}
	if version < oldestVersion || version > Version {
		return 0, nil, nil, fmt.Errorf("%w: file version %d, supported %d to %d", ErrVersion, version, oldestVersion, Version)
	}
	next := headPayload
	if version >= 4 {
		next = headColumns
	}
	field, rest, ok = bytes.Cut(rest, []byte(next))
	if !ok {
		return 0, nil, nil, fmt.Errorf("%w: no %s field after the crc", ErrCorrupt, next)
	}
	crc, ok := parseDecimal(field, 32)
	if !ok {
		return 0, nil, nil, fmt.Errorf("%w: bad crc %.32q", ErrCorrupt, field)
	}
	if version >= 4 {
		field, rest, ok = bytes.Cut(rest, []byte(headPayload))
		if !ok {
			return 0, nil, nil, fmt.Errorf("%w: no payload field", ErrCorrupt)
		}
		n, ok := parseDecimal(field, 63)
		if !ok || n > uint64(len(rest)) {
			return 0, nil, nil, fmt.Errorf("%w: bad section length %.32q", ErrCorrupt, field)
		}
		rest, section = rest[:len(rest)-int(n)], rest[len(rest)-int(n):]
	}
	payload, ok = bytes.CutSuffix(rest, []byte("}"))
	if !ok || len(payload) == 0 || isSpace(payload[0]) || isSpace(payload[len(payload)-1]) {
		return 0, nil, nil, fmt.Errorf("%w: payload not followed by the closing brace", ErrCorrupt)
	}
	if sum := crc32.Update(crc32.ChecksumIEEE(payload), crc32.IEEETable, section); uint64(sum) != crc {
		return 0, nil, nil, fmt.Errorf("%w: CRC %08x, recorded %08x", ErrCorrupt, sum, crc)
	}
	return version, payload, section, nil
}

// parseDecimal parses field as an unsigned decimal of at most bits bits,
// written the one way strconv writes it (no sign, no leading zeros).
func parseDecimal(field []byte, bits int) (uint64, bool) {
	n, err := strconv.ParseUint(string(field), 10, bits)
	return n, err == nil && strconv.FormatUint(n, 10) == string(field)
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
