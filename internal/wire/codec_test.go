package wire

import (
	"errors"
	"math"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	rows := [][]float64{{1.5, math.Inf(-1)}, {math.Copysign(0, -1), math.NaN()}}
	buf := AppendHeader(nil, 0x7E, 2)
	buf = AppendU32(buf, 0xDEADBEEF)
	buf = AppendU64(buf, 1<<63|5)
	buf = AppendF64(buf, -2.25)
	buf = AppendBool(buf, true)
	buf = AppendBool(buf, false)
	buf = AppendBytes(buf, []byte("opaque"))
	buf = AppendFloats(buf, rows)
	buf = AppendU32(buf, 2)
	buf = AppendU32(buf, 7)
	buf = AppendU32(buf, 8)

	d := NewDecoder(buf)
	d.Header(0x7E, 2)
	if v := d.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := d.U64(); v != 1<<63|5 {
		t.Errorf("U64 = %#x", v)
	}
	if v := d.F64(); v != -2.25 {
		t.Errorf("F64 = %g", v)
	}
	if a, b := d.Bool(), d.Bool(); !a || b {
		t.Errorf("Bool = %v, %v", a, b)
	}
	if v := d.Bytes(); string(v) != "opaque" {
		t.Errorf("Bytes = %q", v)
	}
	got := d.Floats(2, 2)
	for i := range rows {
		for j := range rows[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(rows[i][j]) {
				t.Errorf("Floats[%d][%d] = %g, want %g bit for bit", i, j, got[i][j], rows[i][j])
			}
		}
	}
	n := d.Count(2)
	for i := 0; i < n; i++ {
		if v := d.U32(); v != uint32(7+i) {
			t.Errorf("element %d = %d", i, v)
		}
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderFailures checks each failure the Decoder detects, and that
// the first one sticks: later reads return zero values and Done reports
// the original error.
func TestDecoderFailures(t *testing.T) {
	u32 := AppendU32(nil, 3)
	for _, tc := range []struct {
		name string
		buf  []byte
		read func(d *Decoder)
		is   error
	}{
		{"short header", []byte{0x01}, func(d *Decoder) { d.Header(0x01, 1) }, ErrTruncated},
		{"wrong kind", []byte{0x02, 1}, func(d *Decoder) { d.Header(0x01, 1) }, ErrBadKind},
		{"wrong version", []byte{0x01, 9}, func(d *Decoder) { d.Header(0x01, 1) }, ErrBadVer},
		{"short prefix", []byte{0, 0, 0}, func(d *Decoder) { d.Bytes() }, ErrTruncated},
		{"length beyond input", []byte{0, 0, 0, 5, 1}, func(d *Decoder) { d.Bytes() }, ErrTruncated},
		{"scalar width", AppendBytes(nil, []byte{1, 2, 3}), func(d *Decoder) { d.U32() }, nil},
		{"u64 width", u32, func(d *Decoder) { d.U64() }, nil},
		{"flag above 1", AppendU32(nil, 2), func(d *Decoder) { d.Bool() }, nil},
		{"floats width", AppendBytes(nil, make([]byte, 8)), func(d *Decoder) { d.Floats(1, 2) }, nil},
		{"count above max", u32, func(d *Decoder) { d.Count(2) }, nil},
		{"count above input", u32, func(d *Decoder) { d.Count(10) }, nil},
		{"trailing bytes", append(u32, 0), func(d *Decoder) { d.U32() }, nil},
		{"recorded failure", u32, func(d *Decoder) { d.Failf("bad %d", 1); d.Fail(errors.New("second")) }, nil},
	} {
		d := NewDecoder(tc.buf)
		tc.read(d)
		first := d.Done()
		if first == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if tc.is != nil && !errors.Is(first, tc.is) {
			t.Errorf("%s: %v, want %v", tc.name, first, tc.is)
		}
		if d.U32() != 0 || d.U64() != 0 || d.Bool() || d.Bytes() != nil || d.Floats(1, 1) != nil || d.Count(1) != 0 || d.Rest() != nil {
			t.Errorf("%s: reads after a failure return non-zero values", tc.name)
		}
		d.Fail(errors.New("later"))
		if err := d.Done(); err != first {
			t.Errorf("%s: error changed from %v to %v", tc.name, first, err)
		}
	}
}
