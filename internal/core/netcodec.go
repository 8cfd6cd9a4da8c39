package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"

	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/wire"
)

// netcodec.go serializes the participant's message payloads for a real
// network transport (internal/transport): the gossip exchange, the
// decryption request and the decryption response. The in-process
// engines pass these payloads by pointer; a daemon moves the identical
// information as wire artifacts inside length-prefixed frames. Every
// decode validates shape and range against the node's own run
// configuration, so a malformed or hostile remote peer can be rejected
// before its bytes touch the push-sum state.

// Payload kind tags (first byte of an encoded payload).
const (
	netGossip          byte = 0x01
	netDecryptRequest  byte = 0x02
	netDecryptResponse byte = 0x03
)

// suiteWireCodec is the optional CipherSuite extension a networked run
// requires: stable byte encodings for cipher vectors and for
// partial-decryption values. The accounted plain suite implements it
// over the wire residue-vector artifact; the Damgård–Jurik suite over
// the ciphertext-vector artifact (suite_dj.go) — its processes share a
// key via the pre-epoch distributed key ceremony, each holding only its
// own share (Params.DJMaterial).
type suiteWireCodec interface {
	// MarshalCipherVector encodes a vector of this suite's ciphers.
	MarshalCipherVector(cs []Cipher) ([]byte, error)
	// UnmarshalCipherVector decodes and validates a cipher vector.
	UnmarshalCipherVector(buf []byte) ([]Cipher, error)
	// MarshalPartialValues encodes the values of a partial-decryption
	// vector (the shared responder index travels separately).
	MarshalPartialValues(ps []Partial) ([]byte, error)
	// UnmarshalPartialValues decodes partial values, stamping each with
	// the responder's key-share index.
	UnmarshalPartialValues(index int, buf []byte) ([]Partial, error)
}

// MarshalCipherVector implements suiteWireCodec: accounted ciphers are
// ring residues, encoded fixed-width against the plaintext modulus.
func (s *plainSuite) MarshalCipherVector(cs []Cipher) ([]byte, error) {
	vs := make([]*big.Int, len(cs))
	for i, c := range cs {
		cc, ok := c.(plainCipher)
		if !ok {
			return nil, errors.New("core: foreign cipher type in plain suite")
		}
		vs[i] = cc.v
	}
	return wire.MarshalResidueVector(s.m, vs)
}

// UnmarshalCipherVector implements suiteWireCodec. Every decoded
// residue is ring-validated by the wire layer; the returned ciphers are
// freshly allocated, never aliasing arena scratch.
func (s *plainSuite) UnmarshalCipherVector(buf []byte) ([]Cipher, error) {
	vs, err := wire.UnmarshalResidueVector(s.m, buf)
	if err != nil {
		return nil, err
	}
	out := make([]Cipher, len(vs))
	for i, v := range vs {
		out[i] = plainCipher{v: v}
	}
	return out, nil
}

// MarshalPartialValues implements suiteWireCodec: accounted partials
// are ring residues too (the shared plaintext under threshold
// semantics).
func (s *plainSuite) MarshalPartialValues(ps []Partial) ([]byte, error) {
	vs := make([]*big.Int, len(ps))
	for i, p := range ps {
		if p.Value == nil {
			return nil, errors.New("core: partial with nil value")
		}
		vs[i] = p.Value
	}
	return wire.MarshalResidueVector(s.m, vs)
}

// UnmarshalPartialValues implements suiteWireCodec.
func (s *plainSuite) UnmarshalPartialValues(index int, buf []byte) ([]Partial, error) {
	vs, err := wire.UnmarshalResidueVector(s.m, buf)
	if err != nil {
		return nil, err
	}
	out := make([]Partial, len(vs))
	for i, v := range vs {
		out[i] = Partial{Index: index, Value: v}
	}
	return out, nil
}

// EncodePayload serializes one protocol payload (as passed to
// Env.Send) for the network transport. It accepts exactly the payload
// types the participant emits.
func (nd *Node) EncodePayload(payload any) ([]byte, error) {
	switch pl := payload.(type) {
	case *gossipPayload:
		if pl.Msg == nil {
			return nil, errors.New("core: gossip payload without message")
		}
		cv, err := nd.codec.MarshalCipherVector(pl.Msg.V)
		if err != nil {
			return nil, err
		}
		// Sized exactly: the hot path's one buffer per message.
		buf := make([]byte, 0, 1+8+4+8*len(pl.Centroids)*nd.pt.run.dim+12+8+4+len(cv))
		buf = wire.AppendU32(append(buf, netGossip), uint32(pl.Iter))
		buf = wire.AppendFloats(buf, pl.Centroids)
		buf = wire.AppendF64(buf, pl.Msg.W)
		buf = wire.AppendU32(buf, uint32(pl.Msg.Exp))
		return wire.AppendBytes(buf, cv), nil
	case *decryptRequest:
		buf := wire.AppendU32([]byte{netDecryptRequest}, uint32(pl.Iter))
		return nd.appendCipherVector(buf, pl.Ciphers)
	case *decryptResponse:
		if len(pl.Partials) == 0 {
			return nil, errors.New("core: empty decrypt response")
		}
		buf := wire.AppendU32([]byte{netDecryptResponse}, uint32(pl.Iter))
		buf = wire.AppendU32(buf, uint32(pl.Partials[0].Index))
		pv, err := nd.codec.MarshalPartialValues(pl.Partials)
		if err != nil {
			return nil, err
		}
		return wire.AppendBytes(buf, pv), nil
	default:
		return nil, fmt.Errorf("core: unencodable payload type %T", payload)
	}
}

// appendCipherVector appends cs as one field holding the suite's
// cipher-vector artifact.
func (nd *Node) appendCipherVector(buf []byte, cs []Cipher) ([]byte, error) {
	cv, err := nd.codec.MarshalCipherVector(cs)
	if err != nil {
		return nil, err
	}
	return wire.AppendBytes(buf, cv), nil
}

// readCipherVector reads a cipher-vector field of exactly want ciphers.
func (nd *Node) readCipherVector(d *wire.Decoder, want int, what string) []Cipher {
	cs, err := nd.codec.UnmarshalCipherVector(d.Bytes())
	d.Fail(err)
	if len(cs) != want {
		d.Failf("%s of %d ciphers, want %d", what, len(cs), want)
	}
	return cs
}

// DecodePayload parses and validates one payload received from a peer.
// Shape and range checks are strict against this node's run
// configuration — iteration tags inside the schedule, centroid matrices
// exactly K×dim of finite values, cipher vectors exactly the fused
// length, push-sum weights finite and population-bounded, dyadic
// exponents within the run's budget — so a peer
// that violates the protocol is rejected here with an error instead of
// desynchronizing the participant state machine.
func (nd *Node) DecodePayload(buf []byte) (any, error) {
	if len(buf) < 1 {
		return nil, errors.New("core: empty payload")
	}
	r := nd.pt.run
	d := wire.NewDecoder(buf[1:])
	iter := int(d.U32())
	if iter >= r.params.Iterations {
		d.Failf("iteration %d outside schedule of %d", iter, r.params.Iterations)
	}
	var pl any
	switch buf[0] {
	case netGossip:
		centroids := d.Floats(r.params.K, r.dim)
		for _, row := range centroids {
			for _, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					d.Failf("non-finite centroid coordinate")
				}
			}
		}
		w := d.F64()
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 || w > float64(r.population) {
			d.Failf("implausible push-sum weight %g", w)
		}
		exp := int(d.U32())
		if !r.dyadicInBudget(w, exp) {
			d.Failf("push-sum weight %g at exponent %d beyond the headroom budget", w, exp)
		}
		cs := nd.readCipherVector(d, 2*r.sideCiphers, "gossip vector")
		pl = &gossipPayload{Iter: iter, Centroids: centroids, Msg: &gossip.Message[Cipher]{V: cs, W: w, Exp: exp}}
	case netDecryptRequest:
		pl = &decryptRequest{Iter: iter, Ciphers: nd.readCipherVector(d, r.sideCiphers, "decrypt request")}
	case netDecryptResponse:
		idx := int(d.U32())
		if idx < 1 || idx > r.suite.Parties() {
			d.Failf("partial index %d outside [1, %d]", idx, r.suite.Parties())
		}
		ps, err := nd.codec.UnmarshalPartialValues(idx, d.Bytes())
		d.Fail(err)
		if len(ps) != r.sideCiphers {
			d.Failf("decrypt response of %d partials, want %d", len(ps), r.sideCiphers)
		}
		pl = &decryptResponse{Iter: iter, Partials: ps}
	default:
		return nil, fmt.Errorf("core: unknown payload kind 0x%02x", buf[0])
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("core: payload kind 0x%02x: %w", buf[0], err)
	}
	return pl, nil
}
