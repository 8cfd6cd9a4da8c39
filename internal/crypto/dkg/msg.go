package dkg

import (
	"errors"
	"fmt"
	"math/big"

	"chiaroscuro/internal/wire"
)

// Wire artifacts of the three ceremony phases, built on the wire
// package's field codec (docs/WIRE.md): a [kind, version] header,
// length-prefixed fields, U32 counts, and strict Unmarshal validation —
// every count is bounded against the remaining buffer before
// allocation, so the fuzz targets cannot be used to provoke huge
// allocations from tiny inputs.
//
// Shares are signed integers (resharing applies signed Lagrange
// weights), so share fields carry an explicit sign byte; commitment
// values are group elements in [0, n^{s+1}) and stay unsigned.

const (
	msgVersion        = 1
	kindDeal          = 0x11
	kindResponse      = 0x12
	kindJustification = 0x13

	// maxWireParties and maxWireCommits bound Unmarshal allocations;
	// both are far above any deployment this codebase runs.
	maxWireParties = 1 << 12
	maxWireCommits = 256
)

// ErrMessage covers every malformed-artifact condition.
var ErrMessage = errors.New("dkg: malformed message")

// Deal is dealer→receiver, private: the receiver's polynomial
// evaluation plus the dealer's public coefficient commitments.
type Deal struct {
	Dealer   int // dealer id (old-deployment index when resharing)
	Receiver int // receiver index in the new deployment, 1-based
	Share    *big.Int
	Commits  []*big.Int
}

// DealerVerdict is one receiver's public statement about one dealer:
// whether it complains (bad or missing share) and the digest of the
// commitment vector it saw (all-zero = no deal received).
type DealerVerdict struct {
	Dealer    int
	Complaint bool
	Digest    [32]byte
}

// Response is a receiver's broadcast verdict list, one entry per
// expected dealer in ascending dealer order.
type Response struct {
	From     int // receiver index, 1-based
	Verdicts []DealerVerdict
}

// JustShare is one revealed share inside a justification.
type JustShare struct {
	Receiver int
	Share    *big.Int
}

// Justification is a dealer's broadcast answer to complaints: its
// commitment vector (so even receivers it never dealt to can verify)
// plus the revealed share of every complainer. Non-dealers broadcast
// an empty justification (Dealer 0) purely for wire-phase regularity.
type Justification struct {
	Dealer  int
	Commits []*big.Int
	Shares  []JustShare
}

func appendSigned(buf []byte, v *big.Int) []byte {
	if v == nil || v.Sign() == 0 {
		return wire.AppendBytes(buf, nil)
	}
	b := v.Bytes()
	field := make([]byte, 1, 1+len(b))
	if v.Sign() < 0 {
		field[0] = 1
	}
	return wire.AppendBytes(buf, append(field, b...))
}

func readSigned(d *wire.Decoder) *big.Int {
	b := d.Bytes()
	v := new(big.Int)
	if len(b) == 0 {
		return v
	}
	if b[0] > 1 {
		d.Failf("bad sign byte")
		return v
	}
	v.SetBytes(b[1:])
	if b[0] == 1 {
		v.Neg(v)
	}
	return v
}

// appendCommits appends a commitment vector: count, then one unsigned
// field per group element.
func appendCommits(buf []byte, commits []*big.Int) ([]byte, error) {
	buf = wire.AppendU32(buf, uint32(len(commits)))
	for _, c := range commits {
		if c == nil || c.Sign() < 0 {
			return nil, fmt.Errorf("%w: invalid commitment", ErrMessage)
		}
		buf = wire.AppendBytes(buf, c.Bytes())
	}
	return buf, nil
}

func readCommits(d *wire.Decoder) []*big.Int {
	commits := make([]*big.Int, d.Count(maxWireCommits))
	for i := range commits {
		commits[i] = new(big.Int).SetBytes(d.Bytes())
	}
	return commits
}

// readParty reads a party index in [min, maxWireParties].
func readParty(d *wire.Decoder, min uint32) int {
	v := d.U32()
	if v < min || v > maxWireParties {
		d.Failf("party index %d out of range", v)
	}
	return int(v)
}

// done finishes a decode, wrapping any failure in ErrMessage.
func done(d *wire.Decoder) error {
	if err := d.Done(); err != nil {
		return fmt.Errorf("%w: %w", ErrMessage, err)
	}
	return nil
}

// MarshalDeal encodes a Deal.
func MarshalDeal(d *Deal) ([]byte, error) {
	if d == nil || d.Dealer < 1 || d.Receiver < 1 || len(d.Commits) == 0 || len(d.Commits) > maxWireCommits {
		return nil, fmt.Errorf("%w: invalid deal", ErrMessage)
	}
	buf := wire.AppendHeader(nil, kindDeal, msgVersion)
	buf = wire.AppendU32(buf, uint32(d.Dealer))
	buf = wire.AppendU32(buf, uint32(d.Receiver))
	buf = appendSigned(buf, d.Share)
	return appendCommits(buf, d.Commits)
}

// UnmarshalDeal decodes and validates a Deal.
func UnmarshalDeal(buf []byte) (*Deal, error) {
	d := wire.NewDecoder(buf)
	d.Header(kindDeal, msgVersion)
	deal := &Deal{}
	deal.Dealer = readParty(d, 1)
	deal.Receiver = readParty(d, 1)
	deal.Share = readSigned(d)
	deal.Commits = readCommits(d)
	if len(deal.Commits) == 0 {
		d.Failf("deal without commitments")
	}
	if err := done(d); err != nil {
		return nil, err
	}
	return deal, nil
}

// MarshalResponse encodes a Response.
func MarshalResponse(r *Response) ([]byte, error) {
	if r == nil || r.From < 1 || len(r.Verdicts) == 0 || len(r.Verdicts) > maxWireParties {
		return nil, fmt.Errorf("%w: invalid response", ErrMessage)
	}
	buf := wire.AppendHeader(nil, kindResponse, msgVersion)
	buf = wire.AppendU32(buf, uint32(r.From))
	buf = wire.AppendU32(buf, uint32(len(r.Verdicts)))
	for _, v := range r.Verdicts {
		if v.Dealer < 1 {
			return nil, fmt.Errorf("%w: invalid verdict dealer", ErrMessage)
		}
		buf = wire.AppendU32(buf, uint32(v.Dealer))
		buf = wire.AppendBool(buf, v.Complaint)
		buf = wire.AppendBytes(buf, v.Digest[:])
	}
	return buf, nil
}

// UnmarshalResponse decodes and validates a Response.
func UnmarshalResponse(buf []byte) (*Response, error) {
	d := wire.NewDecoder(buf)
	d.Header(kindResponse, msgVersion)
	r := &Response{From: readParty(d, 1)}
	r.Verdicts = make([]DealerVerdict, d.Count(maxWireParties))
	if len(r.Verdicts) == 0 {
		d.Failf("response without verdicts")
	}
	for i := range r.Verdicts {
		v := &r.Verdicts[i]
		v.Dealer = readParty(d, 1)
		v.Complaint = d.Bool()
		digest := d.Bytes()
		if len(digest) != 32 {
			d.Failf("digest must be 32 bytes")
		}
		copy(v.Digest[:], digest)
	}
	if err := done(d); err != nil {
		return nil, err
	}
	return r, nil
}

// MarshalJustification encodes a Justification (possibly empty).
func MarshalJustification(j *Justification) ([]byte, error) {
	if j == nil || j.Dealer < 0 || len(j.Commits) > maxWireCommits || len(j.Shares) > maxWireParties {
		return nil, fmt.Errorf("%w: invalid justification", ErrMessage)
	}
	if j.Dealer == 0 && (len(j.Commits) > 0 || len(j.Shares) > 0) {
		return nil, fmt.Errorf("%w: non-dealer justification must be empty", ErrMessage)
	}
	buf := wire.AppendHeader(nil, kindJustification, msgVersion)
	buf = wire.AppendU32(buf, uint32(j.Dealer))
	buf, err := appendCommits(buf, j.Commits)
	if err != nil {
		return nil, err
	}
	buf = wire.AppendU32(buf, uint32(len(j.Shares)))
	for _, s := range j.Shares {
		if s.Receiver < 1 {
			return nil, fmt.Errorf("%w: invalid justification receiver", ErrMessage)
		}
		buf = wire.AppendU32(buf, uint32(s.Receiver))
		buf = appendSigned(buf, s.Share)
	}
	return buf, nil
}

// UnmarshalJustification decodes and validates a Justification.
func UnmarshalJustification(buf []byte) (*Justification, error) {
	d := wire.NewDecoder(buf)
	d.Header(kindJustification, msgVersion)
	j := &Justification{Dealer: readParty(d, 0)}
	j.Commits = readCommits(d)
	if n := d.Count(maxWireParties); n > 0 {
		j.Shares = make([]JustShare, n)
		for i := range j.Shares {
			j.Shares[i].Receiver = readParty(d, 1)
			j.Shares[i].Share = readSigned(d)
		}
	}
	if j.Dealer == 0 && (len(j.Commits) > 0 || len(j.Shares) > 0) {
		d.Failf("non-dealer justification must be empty")
	}
	if err := done(d); err != nil {
		return nil, err
	}
	if len(j.Commits) == 0 {
		j.Commits = nil
	}
	return j, nil
}
