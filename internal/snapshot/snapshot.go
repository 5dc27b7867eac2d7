// Package snapshot implements the deterministic binary serialization layer
// for checkpoint/restore of a full chip simulation (DESIGN.md §9). It is a
// leaf package (stdlib only): components encode their state through an
// Encoder into named sections of a versioned File, and restore it through a
// Decoder. The format is little-endian, fixed-width, and self-delimiting,
// so the same run state always produces byte-identical snapshots — the
// property the bisection debugger (bisect.go) and the restore-determinism
// contract depend on.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"syscall"
)

// Magic identifies a snapshot file; Version is bumped on any layout change.
// A reader refuses files whose version it does not know — state layouts are
// not forward-compatible across simulator changes.
const (
	Magic   = "SMCOSNP\x01"
	Version = 2
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Encoder accumulates little-endian fixed-width fields. The zero value is
// ready to use. Context carries side-band state (e.g. a program-address
// resolver) for encoders that need it; it is never serialized.
type Encoder struct {
	buf     []byte
	Context any
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded payload (not a copy).
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a bool as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends an int64 (two's complement, little-endian).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as an int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 by its IEEE-754 bits, so restore is bit-exact.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Decoder consumes fields written by Encoder. The first malformed read
// latches an error; subsequent reads return zero values, so restore code
// can decode straight through and check Err once. Context mirrors
// Encoder.Context for side-band state during restore.
type Decoder struct {
	buf     []byte
	off     int
	err     error
	Context any
}

// NewDecoder reads from b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Fail latches a decoding error (also used by callers to report semantic
// mismatches, e.g. a component count that does not match the running chip).
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.Fail("snapshot: truncated payload (want %d bytes at offset %d of %d)", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int written by Encoder.Int.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64 bit-exactly.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Blob reads a length-prefixed byte slice as a copy (safe to retain).
func (d *Decoder) Blob() []byte {
	n := int(d.U32())
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// BlobInto reads a length-prefixed byte slice into dst, failing unless the
// stored length matches exactly. Used to restore fixed-size buffers (SPM
// arrays, cache lines) in place.
func (d *Decoder) BlobInto(dst []byte) {
	n := int(d.U32())
	if d.err != nil {
		return
	}
	if n != len(dst) {
		d.Fail("snapshot: blob length %d does not match destination %d", n, len(dst))
		return
	}
	b := d.take(n)
	if b != nil {
		copy(dst, b)
	}
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := int(d.U32())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// File is a versioned container of named sections, one per component,
// ordered as added. Section order is part of the byte format, so identical
// chip state always encodes to identical bytes.
type File struct {
	Version uint32
	names   []string
	data    map[string][]byte
}

// NewFile returns an empty container at the current Version.
func NewFile() *File {
	return &File{Version: Version, data: make(map[string][]byte)}
}

// Add appends a named section. Adding a duplicate name panics: component
// IDs must be unique for restore to be well-defined.
func (f *File) Add(name string, payload []byte) {
	if _, dup := f.data[name]; dup {
		panic(fmt.Sprintf("snapshot: duplicate section %q", name))
	}
	f.names = append(f.names, name)
	f.data[name] = payload
}

// Has reports whether a section exists.
func (f *File) Has(name string) bool {
	_, ok := f.data[name]
	return ok
}

// Section returns a section's payload, or nil when absent.
func (f *File) Section(name string) []byte { return f.data[name] }

// Names returns the section names in file order.
func (f *File) Names() []string {
	out := make([]string, len(f.names))
	copy(out, f.names)
	return out
}

// Encode renders the container: magic, version, section count, sections
// (name and payload, length-prefixed), then a CRC-64/ECMA of everything
// preceding it.
func (f *File) Encode() []byte {
	e := NewEncoder()
	e.buf = append(e.buf, Magic...)
	e.U32(f.Version)
	e.U32(uint32(len(f.names)))
	for _, name := range f.names {
		e.String(name)
		e.Blob(f.data[name])
	}
	e.U64(crc64.Checksum(e.buf, crcTable))
	return e.buf
}

// Decode parses an encoded container, verifying magic, version, and
// checksum.
func Decode(b []byte) (*File, error) {
	if len(b) < len(Magic)+8 {
		return nil, fmt.Errorf("snapshot: file too short (%d bytes)", len(b))
	}
	if string(b[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic")
	}
	body, sum := b[:len(b)-8], binary.LittleEndian.Uint64(b[len(b)-8:])
	if got := crc64.Checksum(body, crcTable); got != sum {
		return nil, fmt.Errorf("snapshot: checksum mismatch (file %#x, computed %#x)", sum, got)
	}
	d := NewDecoder(body)
	d.off = len(Magic)
	f := &File{data: make(map[string][]byte)}
	f.Version = d.U32()
	if f.Version != Version {
		return nil, fmt.Errorf("snapshot: unsupported version %d (want %d)", f.Version, Version)
	}
	n := int(d.U32())
	for i := 0; i < n; i++ {
		name := d.String()
		payload := d.Blob()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if _, dup := f.data[name]; dup {
			return nil, fmt.Errorf("snapshot: duplicate section %q", name)
		}
		f.names = append(f.names, name)
		f.data[name] = payload
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("snapshot: %d trailing bytes", d.Remaining())
	}
	return f, nil
}

// WriteFile atomically and durably writes the encoded container to path:
// write to a temp file in the same directory, fsync it, rename over the
// target, then fsync the directory so the rename itself survives a power
// cut. A crash at any point leaves either the old snapshot or the new one,
// never a truncated or unlinked file.
func (f *File) WriteFile(path string) error {
	tmp := path + ".tmp"
	if err := writeSync(tmp, f.Encode()); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// writeSync writes data to path and flushes it to stable storage before
// closing.
func writeSync(path string, data []byte) error {
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := fh.Write(data); err != nil {
		fh.Close()
		return err
	}
	if err := fh.Sync(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Some
// platforms refuse to sync directories; that is not a durability bug in
// the caller, so those errors are swallowed.
func syncDir(dir string) error {
	dh, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer dh.Close()
	if err := dh.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.EBADF) {
		return err
	}
	return nil
}

// ReadFile loads and decodes a snapshot from disk.
func ReadFile(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

// Fingerprints hashes every section of a file, keyed by section name. Two
// runs of the same workload have equal fingerprints at a cycle iff their
// full component state is bit-identical there — the comparison primitive
// the bisection debugger uses.
func Fingerprints(f *File) map[string]uint64 {
	out := make(map[string]uint64, len(f.names))
	for _, name := range f.names {
		out[name] = crc64.Checksum(f.data[name], crcTable)
	}
	return out
}
