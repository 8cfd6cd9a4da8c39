// Package core implements the Chiaroscuro protocol itself: the Diptych
// data structure and the iterative execution sequence of Sec. II.B —
// local assignment over perturbed cleartext centroids, distributed
// computation of the encrypted means and encrypted Laplace noise by
// gossip, collaborative (threshold) decryption of the perturbed means,
// and the local convergence step — plus the quality-enhancing heuristics
// (privacy-budget distribution and smoothing of perturbed means).
//
// The protocol code is written against the CipherSuite interface, with
// two interchangeable backends:
//
//   - the real Damgård–Jurik backend (suite_dj.go), running genuine
//     homomorphic arithmetic and threshold decryptions;
//   - the accounted plaintext backend (suite_plain.go), which executes
//     bit-identical ring arithmetic on plaintext residues while counting
//     every operation, mirroring the demonstration platform: "we disable
//     the homomorphic operations ... the performance overhead ... is
//     clearly displayed ... based on actual average measures performed
//     beforehand" (Sec. III.B).
package core

import (
	"math/big"
	"sync/atomic"
	"unsafe"
)

// Cipher is an opaque encrypted (or accounted-plaintext) ring element.
type Cipher interface{}

// Partial is one party's contribution to a collaborative decryption.
type Partial struct {
	// Index is the 1-based key-share index of the contributing party.
	Index int
	// Value is backend-specific.
	Value *big.Int
}

// OpCounts tallies homomorphic operations, the basis of the cost
// projection in the accounted backend.
type OpCounts struct {
	Encrypts int64
	Adds     int64
	// Halvings counts gossip emit refreshes, one per emitted cipher (a
	// pooled rerandomization on the real backend). The halving itself is
	// the public exponent bump of dyadic push-sum and costs nothing.
	Halvings int64
	// Squarings counts exponent-alignment doublings, one per cipher per
	// unit of exponent difference (a ciphertext squaring on the real
	// backend).
	Squarings       int64
	PartialDecrypts int64
	Combines        int64
	// CombineCtxHits counts responder-set combine plans served from the
	// suite's cache instead of being rebuilt (Damgård–Jurik backend; the
	// accounted backend has no plan to cache).
	CombineCtxHits int64
	// PartialCacheHits counts decrypt requests a responder served from
	// its memoized per-(iteration, cipher-set) partials instead of
	// recomputing them (summed across participants by buildTrace).
	PartialCacheHits int64
}

// cipherValidator is the optional CipherSuite extension behind the wire
// hardening: ValidateCipher rejects values that are not well-formed
// ciphertexts of the suite (foreign types, out-of-ring residues,
// out-of-range group elements) without touching any homomorphic state.
// Byzantine fault plans (internal/simnet) enable per-message validation
// of incoming gossip through it.
type cipherValidator interface {
	ValidateCipher(c Cipher) error
}

// CipherSuite is the encryption abstraction Chiaroscuro needs
// (Sec. II.A): semantic security is the backend's concern; additive
// homomorphism and collaborative decryption by any sufficiently large
// subset are expressed in the interface.
type CipherSuite interface {
	// Name identifies the backend in logs and experiment tables.
	Name() string
	// PlainModulus returns the plaintext ring modulus M (a fresh copy).
	PlainModulus() *big.Int
	// CipherBytes is the serialized size of one Cipher, for accounting.
	CipherBytes() int

	// Encrypt maps a plaintext residue (0 <= m < M) to a fresh Cipher.
	Encrypt(m *big.Int) (Cipher, error)
	// Add returns a Cipher of the sum of the two plaintexts.
	Add(a, b Cipher) (Cipher, error)
	// Refresh returns a fresh Cipher of the same plaintext that shares
	// no storage with c — the emit refresh that keeps gossip hops
	// unlinkable. Counted in OpCounts.Halvings.
	Refresh(c Cipher) (Cipher, error)
	// Double returns a Cipher of the plaintext multiplied by 2^k — the
	// push-sum exponent alignment. Counted k times in OpCounts.Squarings.
	Double(c Cipher, k uint) (Cipher, error)

	// Parties and Threshold describe the key sharing: Threshold distinct
	// partial decryptions open a ciphertext.
	Parties() int
	Threshold() int
	// PartialDecrypt stores party's contribution for cs[i] in dst[i]
	// (len(dst) == len(cs)) — a whole decrypt request at once. party is
	// the 1-based key-share index.
	PartialDecrypt(party int, dst []Partial, cs []Cipher) error
	// Combine opens a ciphertext from at least Threshold distinct
	// partials (all for the same ciphertext).
	Combine(parts []Partial) (*big.Int, error)
	// CombineColumns opens a whole pending-cipher vector against one
	// responder set, resolving the set (validation, Lagrange/multiexp
	// plan on the real backend) once instead of per ciphertext. sets[j]
	// is responder j's per-cipher partials — all carrying
	// sets[j][0].Index — ordered ascending by share index across j, each
	// as long as dst. The plaintext of column i is stored in dst[i];
	// values and operation counts are identical to len(dst) separate
	// Combine calls over the per-cipher columns. A stored value may be
	// shared with the partials (the accounted backend opens a column to
	// the residue its partials agree on), so callers treat it as
	// read-only.
	CombineColumns(dst []*big.Int, sets [][]Partial) error

	// Counts returns a snapshot of the operation counters.
	Counts() OpCounts
}

// opTally is the suites' exact operation tally. With one shared counter
// per operation, every shard worker wrote the same word for every cipher
// it touched. The tally instead spreads the counts over
// cache-line-padded stripes chosen by the address of the residue the
// operation works on. A participant's
// residues live together in its own arenas, and shard workers step
// disjoint participants, so concurrent workers almost always land on
// different stripes. counts sums them.
type opTally struct {
	stripes [opStripes]opStripe
}

const (
	opStripeBits = 6
	opStripes    = 1 << opStripeBits
)

// opStripe is one padded set of counters: 128 bytes, so neither a stripe
// nor its adjacent-line prefetch pair is shared with another stripe.
type opStripe struct {
	opCounters
	_ [128 - unsafe.Sizeof(opCounters{})]byte
}

type opCounters struct {
	encrypts, adds, halvings, squarings, partialDecrypts, combines atomic.Int64
}

// at returns the stripe for an operation on key. Keying by the residue's
// page (not its word) keeps one participant's run of operations on one
// stripe. The address is only hashed, never dereferenced.
func (t *opTally) at(key *big.Int) *opStripe {
	page := uint64(uintptr(unsafe.Pointer(key))) >> 12
	return &t.stripes[(page*0x9E3779B97F4A7C15)>>(64-opStripeBits)]
}

// counts sums the stripes.
func (t *opTally) counts() OpCounts {
	var c OpCounts
	for i := range t.stripes {
		s := &t.stripes[i]
		c.Encrypts += s.encrypts.Load()
		c.Adds += s.adds.Load()
		c.Halvings += s.halvings.Load()
		c.Squarings += s.squarings.Load()
		c.PartialDecrypts += s.partialDecrypts.Load()
		c.Combines += s.combines.Load()
	}
	return c
}
