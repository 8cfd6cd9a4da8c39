package fixedpoint

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(129); err == nil {
		t.Fatal("fracBits > 128 should error")
	}
	if c, err := New(0); err != nil || c.FracBits() != 0 {
		t.Fatalf("fracBits 0 should be allowed: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(200) should panic")
		}
	}()
	MustNew(200)
}

func TestEncodeDecodeExactValues(t *testing.T) {
	c := MustNew(16)
	for _, x := range []float64{0, 1, -1, 0.5, -0.25, 1234.0625} {
		v, err := c.Encode(x)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Decode(v); got != x {
			t.Fatalf("roundtrip(%v) = %v", x, got)
		}
	}
}

func TestEncodeRejectsNonFinite(t *testing.T) {
	c := MustNew(8)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := c.Encode(x); !errors.Is(err, ErrNotFinite) {
			t.Fatalf("Encode(%v): err = %v", x, err)
		}
	}
}

func TestRoundTripPrecisionProperty(t *testing.T) {
	c := MustNew(30)
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
			return true
		}
		v, err := c.Encode(x)
		if err != nil {
			return false
		}
		back := c.Decode(v)
		return math.Abs(back-x) <= math.Ldexp(1, -30)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeAdditivityProperty(t *testing.T) {
	// encode(a) + encode(b) decodes to ~(a+b): the property the
	// homomorphic aggregation relies on.
	c := MustNew(24)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		a := rng.NormFloat64() * 100
		b := rng.NormFloat64() * 100
		va, _ := c.Encode(a)
		vb, _ := c.Encode(b)
		sum := new(big.Int).Add(va, vb)
		if got := c.Decode(sum); math.Abs(got-(a+b)) > math.Ldexp(2, -24) {
			t.Fatalf("decode(enc(%v)+enc(%v)) = %v", a, b, got)
		}
	}
}

func TestWrapUnwrapSigned(t *testing.T) {
	M := big.NewInt(1000)
	for _, v := range []int64{0, 1, -1, 499, -499} {
		w, err := WrapSigned(big.NewInt(v), M)
		if err != nil {
			t.Fatalf("wrap(%d): %v", v, err)
		}
		if w.Sign() < 0 || w.Cmp(M) >= 0 {
			t.Fatalf("wrap(%d) = %v not reduced", v, w)
		}
		u, err := UnwrapSigned(w, M)
		if err != nil {
			t.Fatal(err)
		}
		if u.Int64() != v {
			t.Fatalf("unwrap(wrap(%d)) = %v", v, u)
		}
	}
}

func TestWrapSignedOverflow(t *testing.T) {
	M := big.NewInt(1000)
	if _, err := WrapSigned(big.NewInt(500), M); !errors.Is(err, ErrOverflow) {
		t.Fatalf("wrap(M/2): err = %v", err)
	}
	if _, err := WrapSigned(big.NewInt(-500), M); !errors.Is(err, ErrOverflow) {
		t.Fatalf("wrap(-M/2): err = %v", err)
	}
	if _, err := WrapSigned(big.NewInt(1), big.NewInt(-5)); err == nil {
		t.Fatal("negative modulus should error")
	}
}

func TestUnwrapSignedValidation(t *testing.T) {
	M := big.NewInt(1000)
	if _, err := UnwrapSigned(big.NewInt(-1), M); err == nil {
		t.Fatal("negative residue should error")
	}
	if _, err := UnwrapSigned(big.NewInt(1000), M); err == nil {
		t.Fatal("residue >= M should error")
	}
	if _, err := UnwrapSigned(big.NewInt(0), big.NewInt(0)); err == nil {
		t.Fatal("zero modulus should error")
	}
}

// TestWrapUnwrapInPlaceAgreement pins the in-place cached-half variants
// to the allocating originals across the sign boundaries — the
// single-convention guarantee the protocol hot path relies on.
func TestWrapUnwrapInPlaceAgreement(t *testing.T) {
	M := big.NewInt(1001) // odd, like the protocol rings
	half := new(big.Int).Rsh(M, 1)
	for v := int64(-520); v <= 520; v++ {
		want, wantErr := WrapSigned(big.NewInt(v), M)
		got := big.NewInt(v)
		gotErr := WrapSignedInPlace(got, M, half)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("wrap(%d): error disagreement: %v vs %v", v, wantErr, gotErr)
		}
		if wantErr != nil {
			if !errors.Is(gotErr, ErrOverflow) {
				t.Fatalf("wrap(%d): in-place error %v is not ErrOverflow", v, gotErr)
			}
			continue
		}
		if want.Cmp(got) != 0 {
			t.Fatalf("wrap(%d): %v vs %v", v, want, got)
		}
	}
	for r := int64(0); r < 1001; r++ {
		want, err := UnwrapSigned(big.NewInt(r), M)
		if err != nil {
			t.Fatalf("unwrap(%d): %v", r, err)
		}
		got := big.NewInt(r)
		if err := UnwrapSignedInPlace(got, M, half); err != nil {
			t.Fatalf("unwrap in place(%d): %v", r, err)
		}
		if want.Cmp(got) != 0 {
			t.Fatalf("unwrap(%d): %v vs %v", r, want, got)
		}
	}
	if err := UnwrapSignedInPlace(big.NewInt(-1), M, half); err == nil {
		t.Fatal("in-place unwrap must reject unreduced input")
	}
	if err := UnwrapSignedInPlace(big.NewInt(1001), M, half); err == nil {
		t.Fatal("in-place unwrap must reject residue >= M")
	}
}

func TestModRoundTripProperty(t *testing.T) {
	c := MustNew(20)
	M := new(big.Int).Lsh(big.NewInt(1), 64)
	M.Sub(M, big.NewInt(59)) // arbitrary odd modulus
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
			return true
		}
		w, err := c.EncodeMod(x, M)
		if err != nil {
			return false
		}
		back, err := c.DecodeMod(w, M)
		if err != nil {
			return false
		}
		return math.Abs(back-x) <= math.Ldexp(1, -20)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestModularAdditionWithSigns(t *testing.T) {
	// Mixed-sign sums must decode correctly through the ring.
	c := MustNew(16)
	M := big.NewInt(1 << 40)
	M.Sub(M, big.NewInt(1))
	a, _ := c.EncodeMod(100.5, M)
	b, _ := c.EncodeMod(-40.25, M)
	sum := new(big.Int).Add(a, b)
	sum.Mod(sum, M)
	got, err := c.DecodeMod(sum, M)
	if err != nil {
		t.Fatal(err)
	}
	if got != 60.25 {
		t.Fatalf("(-40.25 + 100.5) via ring = %v", got)
	}
}

func TestEncodeDecodeSeries(t *testing.T) {
	c := MustNew(12)
	xs := []float64{1.5, -2.25, 0}
	vs, err := c.EncodeSeries(xs)
	if err != nil {
		t.Fatal(err)
	}
	back := c.DecodeSeries(vs)
	for i := range xs {
		if back[i] != xs[i] {
			t.Fatalf("series roundtrip = %v", back)
		}
	}
	if _, err := c.EncodeSeries([]float64{math.NaN()}); err == nil {
		t.Fatal("NaN in series should error")
	}
}

func TestHeadroomBits(t *testing.T) {
	M := new(big.Int).Lsh(big.NewInt(1), 100)
	if got := HeadroomBits(M, 60); got != 40 {
		t.Fatalf("headroom = %d, want 40", got)
	}
	if got := HeadroomBits(M, 120); got >= 0 {
		t.Fatalf("overflowing bound should be negative, got %d", got)
	}
}

func TestExtremeMagnitudeEncode(t *testing.T) {
	// Exercise the big.Float slow path.
	c := MustNew(64)
	x := 1e30
	v, err := c.Encode(x)
	if err != nil {
		t.Fatal(err)
	}
	back := c.Decode(v)
	if math.Abs(back-x)/x > 1e-12 {
		t.Fatalf("extreme roundtrip: %v vs %v", back, x)
	}
}

// decodeOracle is Decode's reference computation: the exact quotient
// v / 2^fracBits at 256-bit precision, rounded once to float64.
func decodeOracle(c *Codec, v *big.Int) float64 {
	f := new(big.Float).SetPrec(256).SetInt(v)
	f.Quo(f, new(big.Float).SetInt(c.scale))
	out, _ := f.Float64()
	return out
}

// TestDecodeMatchesBigFloatOracle pins Decode's allocation-free fast
// path to the big.Float computation bit for bit, at the 2^53 boundary
// where the fast path hands over, at int64 and ring widths, and at
// random magnitudes, for every supported precision regime.
func TestDecodeMatchesBigFloatOracle(t *testing.T) {
	pow := func(k uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), k) }
	var vals []*big.Int
	for _, v := range []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(3), big.NewInt(12345),
		new(big.Int).Sub(pow(53), big.NewInt(1)), pow(53), new(big.Int).Add(pow(53), big.NewInt(1)),
		pow(63), new(big.Int).Sub(pow(63), big.NewInt(1)), pow(64),
		new(big.Int).Sub(pow(319), big.NewInt(1)), pow(319), new(big.Int).Sub(pow(319), pow(200)),
	} {
		vals = append(vals, v, new(big.Int).Neg(v))
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 400; i++ {
		v := new(big.Int).Rand(rng, pow(uint(1+rng.Intn(320))))
		if rng.Intn(2) == 0 {
			v.Neg(v)
		}
		vals = append(vals, v)
	}
	for _, fb := range []uint{0, 1, 40, 128} {
		c := MustNew(fb)
		for _, v := range vals {
			got, want := c.Decode(v), decodeOracle(c, v)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("fracBits %d: Decode(%s) = %v (%#x), oracle %v (%#x)", fb, v, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	c, small := MustNew(40), big.NewInt(-(1<<53 - 1))
	if allocs := testing.AllocsPerRun(20, func() { c.Decode(small) }); allocs != 0 {
		t.Fatalf("Decode below 2^53 allocates %.0f objects, want none", allocs)
	}
}

// TestEncodeIntoMatchesEncode checks the in-place encoder against
// Encode on both rounding paths, into a reused destination, and that
// it leaves dst alone on a non-finite input.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := []float64{0, 1, -1, 0.5, -0.5, 1.5, 2.5, -2.5, 1e-9, math.MaxFloat64, -math.MaxFloat64, math.Ldexp(1, 70), -math.Ldexp(3, 61)}
	for i := 0; i < 300; i++ {
		xs = append(xs, math.Ldexp(rng.NormFloat64(), rng.Intn(200)-100))
	}
	for _, fb := range []uint{0, 1, 40, 128} {
		c := MustNew(fb)
		dst := new(big.Int)
		for _, x := range xs {
			want, err := c.Encode(x)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.EncodeInto(dst, x); err != nil {
				t.Fatal(err)
			}
			if dst.Cmp(want) != 0 {
				t.Fatalf("fracBits %d: EncodeInto(%v) = %s, Encode = %s", fb, x, dst, want)
			}
		}
		// Ties round to even, as Encode always did.
		for _, tie := range []struct {
			x    float64
			want int64
		}{{0.5, 0}, {1.5, 2}, {2.5, 2}, {-0.5, 0}, {-1.5, -2}, {-2.5, -2}} {
			if err := c.EncodeInto(dst, math.Ldexp(tie.x, -int(fb))); err != nil || !dst.IsInt64() || dst.Int64() != tie.want {
				t.Fatalf("fracBits %d: EncodeInto(%v·2^-%d) = %s (%v), want %d", fb, tie.x, fb, dst, err, tie.want)
			}
		}
		before := new(big.Int).Set(dst)
		if err := c.EncodeInto(dst, math.NaN()); !errors.Is(err, ErrNotFinite) {
			t.Fatalf("EncodeInto(NaN) error = %v", err)
		}
		if dst.Cmp(before) != 0 {
			t.Fatal("EncodeInto changed dst on error")
		}
	}
}
