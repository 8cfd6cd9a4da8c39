// Package wire provides the one binary field codec every encoding in
// the repository is built on (codec.go: the Append* helpers and the
// sticky-error Decoder), the stable artifact encodings for the
// protocol's transportable values — public keys, key shares, partial
// decryptions, ciphertexts and ciphertext/residue vectors — and the
// length-prefixed stream framing (frame.go). docs/WIRE.md specifies the
// format. An artifact is
//
//	[1 byte kind] [1 byte version] { [4-byte big-endian length] [payload] }*
//
// where each payload is the minimal big-endian magnitude of a
// non-negative big.Int or a fixed-width scalar; the vector artifacts
// end in unframed fixed-width bodies. Artifact values are non-negative
// residues, so they carry no sign; the key ceremony's signed shares
// add their own sign byte (internal/crypto/dkg).
package wire

import (
	"errors"
	"fmt"
	"math/big"

	"chiaroscuro/internal/crypto/damgardjurik"
)

// Artifact kind tags.
const (
	kindPublicKey byte = 0x01
	kindKeyShare  byte = 0x02
	kindPartial   byte = 0x03
	kindCipher    byte = 0x04
)

const version byte = 1

// Encoding errors.
var (
	ErrTruncated = errors.New("wire: truncated input")
	ErrBadKind   = errors.New("wire: unexpected artifact kind")
	ErrBadVer    = errors.New("wire: unsupported version")
)

// maxDegree bounds the Damgård–Jurik degree accepted from the wire.
// Building a public key materializes n^{s+1}, so an adversarial s would
// otherwise turn a few input bytes into unbounded computation; no
// supported protocol configuration comes near this bound.
const maxDegree = 16

// appendInt appends a non-negative big.Int as its minimal big-endian
// magnitude. Negative values never occur in valid artifacts; they (and
// nil) encode as empty, which round-trips to zero and fails validation
// later.
func appendInt(buf []byte, v *big.Int) []byte {
	if v == nil || v.Sign() < 0 {
		return AppendBytes(buf, nil)
	}
	return AppendBytes(buf, v.Bytes())
}

// MarshalPublicKey encodes (n, s).
func MarshalPublicKey(pk *damgardjurik.PublicKey) ([]byte, error) {
	if pk == nil || pk.N == nil {
		return nil, errors.New("wire: nil public key")
	}
	buf := AppendHeader(nil, kindPublicKey, version)
	buf = appendInt(buf, pk.N)
	return AppendU32(buf, uint32(pk.S)), nil
}

// UnmarshalPublicKey decodes a public key and rebuilds its caches.
func UnmarshalPublicKey(buf []byte) (*damgardjurik.PublicKey, error) {
	d := NewDecoder(buf)
	d.Header(kindPublicKey, version)
	n := new(big.Int).SetBytes(d.Bytes())
	s := d.U32()
	if err := d.Done(); err != nil {
		return nil, err
	}
	if s < 1 || s > maxDegree {
		return nil, fmt.Errorf("wire: degree %d outside [1, %d]", s, maxDegree)
	}
	return damgardjurik.NewPublicKey(n, int(s))
}

// MarshalKeyShare encodes a secret key share. Treat the output as secret
// material.
func MarshalKeyShare(ks damgardjurik.KeyShare) ([]byte, error) {
	if ks.Value == nil || ks.Index < 1 {
		return nil, errors.New("wire: invalid key share")
	}
	return appendIndexed(kindKeyShare, ks.Index, ks.Value), nil
}

// UnmarshalKeyShare decodes a key share.
func UnmarshalKeyShare(buf []byte) (damgardjurik.KeyShare, error) {
	idx, v, err := readIndexed(buf, kindKeyShare)
	if err != nil {
		return damgardjurik.KeyShare{}, err
	}
	return damgardjurik.KeyShare{Index: idx, Value: v}, nil
}

// MarshalPartial encodes a partial decryption.
func MarshalPartial(p damgardjurik.PartialDecryption) ([]byte, error) {
	if p.Value == nil || p.Index < 1 {
		return nil, errors.New("wire: invalid partial decryption")
	}
	return appendIndexed(kindPartial, p.Index, p.Value), nil
}

// UnmarshalPartial decodes a partial decryption.
func UnmarshalPartial(buf []byte) (damgardjurik.PartialDecryption, error) {
	idx, v, err := readIndexed(buf, kindPartial)
	if err != nil {
		return damgardjurik.PartialDecryption{}, err
	}
	return damgardjurik.PartialDecryption{Index: idx, Value: v}, nil
}

// appendIndexed encodes the (index, value) layout key shares and
// partial decryptions share.
func appendIndexed(kind byte, index int, v *big.Int) []byte {
	buf := AppendHeader(nil, kind, version)
	buf = AppendU32(buf, uint32(index))
	return appendInt(buf, v)
}

// readIndexed decodes an appendIndexed artifact; index 0 is invalid.
func readIndexed(buf []byte, kind byte) (int, *big.Int, error) {
	d := NewDecoder(buf)
	d.Header(kind, version)
	idx := d.U32()
	v := new(big.Int).SetBytes(d.Bytes())
	if err := d.Done(); err != nil {
		return 0, nil, err
	}
	if idx < 1 {
		return 0, nil, fmt.Errorf("wire: artifact 0x%02x with index 0", kind)
	}
	return int(idx), v, nil
}

// MarshalCiphertext encodes one ciphertext, fixed-width against the given
// public key so message sizes are predictable (the basis of the cost
// accounting).
func MarshalCiphertext(pk *damgardjurik.PublicKey, c *big.Int) ([]byte, error) {
	if pk == nil {
		return nil, errors.New("wire: nil public key")
	}
	if c == nil || c.Sign() <= 0 || c.Cmp(pk.CiphertextModulus()) >= 0 {
		return nil, errors.New("wire: ciphertext out of range")
	}
	payload := make([]byte, pk.CiphertextBytes())
	c.FillBytes(payload)
	return AppendBytes(AppendHeader(make([]byte, 0, 2+4+len(payload)), kindCipher, version), payload), nil
}

// UnmarshalCiphertext decodes a ciphertext and validates it against the
// public key.
func UnmarshalCiphertext(pk *damgardjurik.PublicKey, buf []byte) (*big.Int, error) {
	d := NewDecoder(buf)
	d.Header(kindCipher, version)
	f := d.Bytes()
	if err := d.Done(); err != nil {
		return nil, err
	}
	if len(f) != pk.CiphertextBytes() {
		return nil, fmt.Errorf("wire: ciphertext width %d, want %d", len(f), pk.CiphertextBytes())
	}
	c := new(big.Int).SetBytes(f)
	if c.Sign() <= 0 || c.Cmp(pk.CiphertextModulus()) >= 0 {
		return nil, errors.New("wire: ciphertext out of range")
	}
	return c, nil
}

// MarshalCiphertextVector encodes a vector of ciphertexts (one gossip
// message's payload) compactly: header, count, then fixed-width bodies.
func MarshalCiphertextVector(pk *damgardjurik.PublicKey, cs []*big.Int) ([]byte, error) {
	if pk == nil {
		return nil, errors.New("wire: nil public key")
	}
	ns1 := pk.CiphertextModulus()
	return appendVector(kindCipher, pk.CiphertextBytes(), cs, func(c *big.Int) bool {
		return c != nil && c.Sign() > 0 && c.Cmp(ns1) < 0
	})
}

// UnmarshalCiphertextVector decodes a ciphertext vector.
func UnmarshalCiphertextVector(pk *damgardjurik.PublicKey, buf []byte) ([]*big.Int, error) {
	ns1 := pk.CiphertextModulus()
	return readVector(buf, kindCipher, pk.CiphertextBytes(), func(c *big.Int) bool {
		return c.Sign() > 0 && c.Cmp(ns1) < 0
	})
}

// appendVector encodes header, U32 count, then one width-byte
// big-endian body per element; every element must pass valid.
func appendVector(kind byte, width int, vs []*big.Int, valid func(*big.Int) bool) ([]byte, error) {
	buf := AppendHeader(make([]byte, 0, 2+8+len(vs)*width), kind, version)
	buf = AppendU32(buf, uint32(len(vs)))
	body := make([]byte, width)
	for i, v := range vs {
		if !valid(v) {
			return nil, fmt.Errorf("wire: vector element %d out of range", i)
		}
		v.FillBytes(body)
		buf = append(buf, body...)
	}
	return buf, nil
}

// readVector decodes an appendVector encoding: the unframed tail must
// be exactly count bodies, and every element must pass valid.
func readVector(buf []byte, kind byte, width int, valid func(*big.Int) bool) ([]*big.Int, error) {
	d := NewDecoder(buf)
	d.Header(kind, version)
	count := d.U32()
	body := d.Rest()
	if err := d.Done(); err != nil {
		return nil, err
	}
	if uint64(len(body)) != uint64(count)*uint64(width) {
		return nil, fmt.Errorf("wire: vector body %d bytes, want %d×%d", len(body), count, width)
	}
	out := make([]*big.Int, count)
	for i := range out {
		v := new(big.Int).SetBytes(body[:width])
		body = body[width:]
		if !valid(v) {
			return nil, fmt.Errorf("wire: vector element %d out of range", i)
		}
		out[i] = v
	}
	return out, nil
}
