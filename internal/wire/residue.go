package wire

import (
	"errors"
	"math/big"
)

// residue.go encodes vectors of plaintext-ring residues — the accounted
// backend's "ciphertexts" and partial decryptions. The demonstration
// platform disables homomorphic operations but still moves the ring
// values between participants; a networked accounted deployment needs a
// stable encoding for them just like the real backend's artifacts. The
// layout mirrors MarshalCiphertextVector: header, count, then
// fixed-width big-endian bodies against the ring modulus, so message
// sizes stay predictable.

// kindResidueVec tags an accounted-backend residue vector.
const kindResidueVec byte = 0x05

var errResidueModulus = errors.New("wire: invalid residue modulus")

// residueWidth is the fixed body width of one residue of the ring Z_m.
func residueWidth(m *big.Int) int { return (m.BitLen() + 7) / 8 }

// MarshalResidueVector encodes a vector of residues of Z_m (each in
// [0, m)), fixed-width against the modulus. Unlike real ciphertexts,
// zero is a valid residue.
func MarshalResidueVector(m *big.Int, vs []*big.Int) ([]byte, error) {
	if m == nil || m.Sign() <= 0 {
		return nil, errResidueModulus
	}
	return appendVector(kindResidueVec, residueWidth(m), vs, func(v *big.Int) bool {
		return v != nil && v.Sign() >= 0 && v.Cmp(m) < 0
	})
}

// UnmarshalResidueVector decodes a residue vector and validates every
// element against the modulus.
func UnmarshalResidueVector(m *big.Int, buf []byte) ([]*big.Int, error) {
	if m == nil || m.Sign() <= 0 {
		return nil, errResidueModulus
	}
	return readVector(buf, kindResidueVec, residueWidth(m), func(v *big.Int) bool { return v.Cmp(m) < 0 })
}
