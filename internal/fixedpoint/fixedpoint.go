// Package fixedpoint encodes float64 values as scaled integers so that
// time-series can live in the additively-homomorphic plaintext space
// Z_{n^s} of the Damgård–Jurik cryptosystem.
//
// Two concerns are handled here:
//
//  1. Fractional precision: a value x is stored as round(x * 2^FracBits).
//  2. Signs in a modular ring: Z_M has no negative numbers, so negative
//     encodings are wrapped as M - |v|, and decoding treats any residue
//     above M/2 as negative. Callers must ensure |values| stay far below
//     M/2 (the protocol's plaintext-headroom budget, documented in
//     internal/core).
//
// The gossip layer's halvings never touch these encodings: push-sum
// tracks them as a public dyadic exponent (see internal/gossip), and the
// decoder divides by the matching power of two. Packing several
// encodings into one plaintext is SlotLayout's job (slots.go).
package fixedpoint

import (
	"errors"
	"fmt"
	"math"
	"math/big"
)

// Codec converts between float64 and scaled big.Int representations.
// The zero value is unusable; use New.
type Codec struct {
	fracBits uint
	scale    *big.Int // 2^fracBits
	scaleF   float64  // float64(2^fracBits)
}

// ErrNotFinite is returned when encoding NaN or ±Inf.
var ErrNotFinite = errors.New("fixedpoint: value is not finite")

// ErrOverflow is returned when a decoded magnitude cannot be represented.
var ErrOverflow = errors.New("fixedpoint: overflow")

// New returns a Codec with the given number of fractional bits.
// fracBits must be in [0, 128].
func New(fracBits uint) (*Codec, error) {
	if fracBits > 128 {
		return nil, fmt.Errorf("fixedpoint: fracBits %d > 128", fracBits)
	}
	scale := new(big.Int).Lsh(big.NewInt(1), fracBits)
	return &Codec{
		fracBits: fracBits,
		scale:    scale,
		scaleF:   math.Ldexp(1, int(fracBits)),
	}, nil
}

// MustNew is New but panics on error; for use with constant arguments.
func MustNew(fracBits uint) *Codec {
	c, err := New(fracBits)
	if err != nil {
		panic(err)
	}
	return c
}

// FracBits reports the codec's fractional precision.
func (c *Codec) FracBits() uint { return c.fracBits }

// Encode converts x into a signed scaled integer round(x * 2^fracBits).
func (c *Codec) Encode(x float64) (*big.Int, error) {
	out := new(big.Int)
	if err := c.EncodeInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeInto is Encode writing into dst, reusing its storage: the
// per-coordinate form the protocol hot path uses. dst is left unchanged
// on error.
func (c *Codec) EncodeInto(dst *big.Int, x float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Errorf("%w: %v", ErrNotFinite, x)
	}
	scaled := x * c.scaleF
	// For magnitudes within int64, the fast path is exact enough.
	if math.Abs(scaled) < (1 << 62) {
		dst.SetInt64(int64(math.RoundToEven(scaled)))
		return nil
	}
	// Slow path via big.Float for extreme magnitudes.
	f := new(big.Float).SetPrec(256).SetFloat64(x)
	f.Mul(f, new(big.Float).SetInt(c.scale))
	f.Int(dst)
	return nil
}

// Decode converts a signed scaled integer back to float64. Below 2^53
// in magnitude v is exact in a float64, and so is its quotient by the
// power of two 2^fracBits (fracBits ≤ 128 keeps it a normal number), so
// Ldexp returns exactly the correctly rounded quotient the big.Float
// path computes — without allocating.
func (c *Codec) Decode(v *big.Int) float64 {
	if v.IsInt64() {
		if i := v.Int64(); i > -1<<53 && i < 1<<53 {
			return math.Ldexp(float64(i), -int(c.fracBits))
		}
	}
	f := new(big.Float).SetPrec(256).SetInt(v)
	f.Quo(f, new(big.Float).SetInt(c.scale))
	out, _ := f.Float64()
	return out
}

// EncodeMod encodes x into the ring Z_M, wrapping negatives as M - |v|.
// It fails if the magnitude reaches M/2 (no unambiguous sign).
func (c *Codec) EncodeMod(x float64, M *big.Int) (*big.Int, error) {
	v, err := c.Encode(x)
	if err != nil {
		return nil, err
	}
	return WrapSigned(v, M)
}

// DecodeMod decodes a ring element of Z_M produced by EncodeMod (or by
// homomorphic arithmetic on such encodings) back to float64.
func (c *Codec) DecodeMod(v, M *big.Int) (float64, error) {
	s, err := UnwrapSigned(v, M)
	if err != nil {
		return 0, err
	}
	return c.Decode(s), nil
}

// WrapSigned maps a signed integer v into Z_M (negatives become M-|v|).
// |v| must be < M/2 so the sign stays recoverable.
func WrapSigned(v, M *big.Int) (*big.Int, error) {
	if M.Sign() <= 0 {
		return nil, errors.New("fixedpoint: modulus must be positive")
	}
	out := new(big.Int).Set(v)
	if err := WrapSignedInPlace(out, M, new(big.Int).Rsh(M, 1)); err != nil {
		return nil, err
	}
	return out, nil
}

// UnwrapSigned maps a ring element of Z_M back to a signed integer,
// interpreting residues above M/2 as negative.
func UnwrapSigned(v, M *big.Int) (*big.Int, error) {
	if M.Sign() <= 0 {
		return nil, errors.New("fixedpoint: modulus must be positive")
	}
	out := new(big.Int).Set(v)
	if err := UnwrapSignedInPlace(out, M, new(big.Int).Rsh(M, 1)); err != nil {
		return nil, err
	}
	return out, nil
}

// WrapSignedInPlace is WrapSigned mutating v with a caller-cached
// half = M >> 1: the allocation-light form the protocol hot path uses
// (one sign wrap per encoded coordinate). The sign convention — reject
// |v| >= M/2, map negatives to M-|v| — is defined here, next to
// WrapSigned, so the two can never diverge.
func WrapSignedInPlace(v, M, half *big.Int) error {
	if v.CmpAbs(half) >= 0 {
		// The error path may allocate: report the magnitude without a
		// stray sign inside the absolute-value bars.
		return fmt.Errorf("%w: |%s| >= M/2", ErrOverflow, new(big.Int).Abs(v).String())
	}
	if v.Sign() < 0 {
		v.Add(v, M)
	}
	return nil
}

// UnwrapSignedInPlace is UnwrapSigned mutating v with a caller-cached
// half = M >> 1 (residues strictly above M/2 become negative).
func UnwrapSignedInPlace(v, M, half *big.Int) error {
	if v.Sign() < 0 || v.Cmp(M) >= 0 {
		return fmt.Errorf("fixedpoint: %s not reduced mod M", v.String())
	}
	if v.Cmp(half) > 0 {
		v.Sub(v, M)
	}
	return nil
}

// EncodeSeries encodes each element of xs (signed representation).
func (c *Codec) EncodeSeries(xs []float64) ([]*big.Int, error) {
	out := make([]*big.Int, len(xs))
	for i, x := range xs {
		v, err := c.Encode(x)
		if err != nil {
			return nil, fmt.Errorf("fixedpoint: element %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// DecodeSeries decodes a slice of signed scaled integers.
func (c *Codec) DecodeSeries(vs []*big.Int) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = c.Decode(v)
	}
	return out
}

// HeadroomBits reports how many bits of |value| headroom remain below M/2
// for an encoding with the given worst-case magnitude bound. It helps the
// protocol validate that population * bound * 2^(frac+exponent budget)
// fits the plaintext space. Returns a negative number if the bound already
// overflows.
func HeadroomBits(M *big.Int, boundBits int) int {
	return M.BitLen() - 1 - boundBits
}
