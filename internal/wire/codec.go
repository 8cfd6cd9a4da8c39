package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// codec.go is the one field codec every encoding in the repository is
// built on: the artifacts in this package, the transport's mesh
// envelope and checkpoint file, the core snapshot and network payloads,
// and the key-ceremony messages. docs/WIRE.md specifies the format.
//
// Every field is length-prefixed ([4-byte big-endian length][payload]);
// scalars are fixed-width payloads inside such a field:
//
//	U32    4-byte big-endian payload
//	U64    8-byte big-endian payload
//	F64    U64 of the IEEE-754 bit pattern (bit-exact, NaNs included)
//	Bool   U32 holding 0 or 1
//	Floats one field of rows×cols F64 bit patterns, row-major
//	Count  U32 element count of the repeated group that follows

// AppendHeader appends a [kind, version] artifact header.
func AppendHeader(buf []byte, kind, version byte) []byte {
	return append(buf, kind, version)
}

// AppendBytes appends one length-prefixed opaque field.
func AppendBytes(buf, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...)
}

// AppendU32 appends a 4-byte scalar field.
func AppendU32(buf []byte, v uint32) []byte {
	buf = binary.BigEndian.AppendUint32(buf, 4)
	return binary.BigEndian.AppendUint32(buf, v)
}

// AppendU64 appends an 8-byte scalar field.
func AppendU64(buf []byte, v uint64) []byte {
	buf = binary.BigEndian.AppendUint32(buf, 8)
	return binary.BigEndian.AppendUint64(buf, v)
}

// AppendF64 appends a float as the U64 field of its bit pattern.
func AppendF64(buf []byte, v float64) []byte { return AppendU64(buf, math.Float64bits(v)) }

// AppendBool appends a flag as a U32 field holding 0 or 1.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return AppendU32(buf, 1)
	}
	return AppendU32(buf, 0)
}

// AppendFloats appends a matrix as one field of bit patterns, row-major.
func AppendFloats(buf []byte, rows [][]float64) []byte {
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(8*n))
	for _, row := range rows {
		for _, v := range row {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

// Decoder reads the fields of one encoded message. Its error is sticky:
// the first failure — a truncated or mis-sized field, a flag other than
// 0/1, a count beyond its bound, or a validation failure recorded with
// Fail — is kept, and every later read returns a zero value. A decoder
// therefore reads straight through a message and reports once, at Done.
// Counts read as zero after a failure, so loops over them stop.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a decoder over buf. Slices it returns alias buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Fail records err (when non-nil) unless an earlier failure is kept.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Failf records a formatted validation failure.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Done returns the first failure, or an error if bytes remain unread.
func (d *Decoder) Done() error {
	if d.err == nil && len(d.buf) != 0 {
		d.err = fmt.Errorf("wire: %d trailing bytes", len(d.buf))
	}
	return d.err
}

// Header consumes a [kind, version] artifact header.
func (d *Decoder) Header(kind, version byte) {
	switch {
	case d.err != nil:
	case len(d.buf) < 2:
		d.err = ErrTruncated
	case d.buf[0] != kind:
		d.err = fmt.Errorf("%w: got 0x%02x, want 0x%02x", ErrBadKind, d.buf[0], kind)
	case d.buf[1] != version:
		d.err = fmt.Errorf("%w: %d", ErrBadVer, d.buf[1])
	default:
		d.buf = d.buf[2:]
	}
}

// Bytes reads one length-prefixed field.
func (d *Decoder) Bytes() []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < 4 || uint64(len(d.buf)-4) < uint64(binary.BigEndian.Uint32(d.buf)) {
		d.err = ErrTruncated
		return nil
	}
	n := binary.BigEndian.Uint32(d.buf)
	out := d.buf[4 : 4+n]
	d.buf = d.buf[4+n:]
	return out
}

// Rest consumes and returns every unread byte: the unframed tail of a
// message, such as a vector's fixed-width bodies.
func (d *Decoder) Rest() []byte {
	if d.err != nil {
		return nil
	}
	out := d.buf
	d.buf = nil
	return out
}

// scalar reads a field that must be exactly width bytes.
func (d *Decoder) scalar(width int) []byte {
	f := d.Bytes()
	if d.err == nil && len(f) != width {
		d.err = fmt.Errorf("wire: scalar field of %d bytes, want %d", len(f), width)
		return nil
	}
	return f
}

// U32 reads a 4-byte scalar field.
func (d *Decoder) U32() uint32 {
	if f := d.scalar(4); f != nil {
		return binary.BigEndian.Uint32(f)
	}
	return 0
}

// U64 reads an 8-byte scalar field.
func (d *Decoder) U64() uint64 {
	if f := d.scalar(8); f != nil {
		return binary.BigEndian.Uint64(f)
	}
	return 0
}

// F64 reads a float written by AppendF64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a flag written by AppendBool, rejecting anything but 0/1.
func (d *Decoder) Bool() bool {
	v := d.U32()
	if v > 1 {
		d.Failf("wire: flag %d is not 0 or 1", v)
	}
	return v == 1
}

// Floats reads a field of exactly rows×cols floats; nil on failure.
func (d *Decoder) Floats(rows, cols int) [][]float64 {
	body := d.Bytes()
	if d.err != nil {
		return nil
	}
	if len(body) != 8*rows*cols {
		d.err = fmt.Errorf("wire: floats field of %d bytes, want %d", len(body), 8*rows*cols)
		return nil
	}
	out := make([][]float64, rows)
	for j := range out {
		row := make([]float64, cols)
		for t := range row {
			row[t] = math.Float64frombits(binary.BigEndian.Uint64(body))
			body = body[8:]
		}
		out[j] = row
	}
	return out
}

// Count reads the element count of a repeated group. A count above max,
// or above what the unread bytes can hold (every element is at least
// one field, so at least 4 bytes), fails before the caller allocates
// anything for it.
func (d *Decoder) Count(max int) int {
	v := d.U32()
	switch {
	case d.err != nil:
		return 0
	case int64(v) > int64(max):
		d.err = fmt.Errorf("wire: count %d exceeds limit %d", v, max)
		return 0
	case int64(v)*4 > int64(len(d.buf)):
		d.err = fmt.Errorf("wire: count %d exceeds the %d remaining bytes", v, len(d.buf))
		return 0
	}
	return int(v)
}
