// Package gossip implements the push-sum gossip aggregation protocol of
// Kempe, Dobra and Gehrke (FOCS 2003), the distribution substrate of
// Chiaroscuro (demo paper, Sec. II.A): lightweight, fully decentralized,
// approximate aggregation by periodical point-to-point exchanges whose
// error converges to zero exponentially fast in the number of exchanges.
//
// Chiaroscuro needs the sum protocol twice per iteration — once over
// additively-homomorphic ciphertexts (the encrypted means) and once for
// the encrypted Laplace noise shares. To serve both, the protocol state is
// generic over a Ring: the value type only needs addition and exact
// doubling. Two rings are provided here (float64 and *big.Int residues);
// internal/core adds the Damgård–Jurik ciphertext ring.
//
// # Dyadic push-sum: halving by a public counter
//
// Push-sum halves a node's state at every emit. Over an encrypted
// modular ring a true halving is the homomorphic scalar multiplication
// by 2^{-1} mod n^s, a full-width exponentiation per ciphertext, and it
// only decodes back to the intended rational when the plaintext is even.
// This package never applies the halving to the values. A State (and
// every Message) carries a public exponent Exp and stands for V/2^Exp:
// an emit increments Exp on both halves and leaves V untouched, and an
// absorb aligns the lower-exponent operand by doubling it (plaintext
// ×2^Δ — a ciphertext squaring per unit of Δ). Under synchronous rounds
// Δ is almost always 0. The decoder divides by W·2^Exp.
//
// Every value is then an exact integer combination of the contributions,
// and the only budget is magnitude. With every contribution entering at
// weight 1 and at most bound, a state keeps |V| ≤ W·2^Exp·bound: an emit
// preserves W·2^Exp and an aligned absorb adds the weights at the larger
// exponent. The caller checks W·2^Exp against the headroom it reserved
// (internal/core charges population·2^B, B = GossipRounds+2 on its cycle
// engines, and fails an iteration whose state exceeds it).
// Exp is a function of the gossip schedule alone — how often a state's
// pieces were split — so sending it in the clear leaks no more than the
// weight W already does.
package gossip

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Ring is the additive structure push-sum requires of its values.
// Implementations must not mutate their arguments.
type Ring[T any] interface {
	// Zero returns the additive identity.
	Zero() T
	// Add returns a + b.
	Add(a, b T) T
	// Double returns 2^k·a, exactly — the alignment step that lifts a
	// value onto a higher dyadic exponent (see State).
	Double(a T, k uint) T
	// Clone returns an independent copy of a.
	Clone(a T) T
}

// Refresher is an optional Ring extension for values that must not
// travel verbatim: every emitted value is replaced by Refresh(value), an
// equal value under a fresh representation (for ciphertext rings, a
// rerandomization — without it an observer could link a contribution
// across gossip hops). Rings without it emit Clones.
type Refresher[T any] interface {
	Refresh(a T) T
}

// BatchRing is an optional Ring extension for batched exchanges: AddAll
// folds a whole column of message values into an accumulator in one
// pass, sparing the intermediate results Add would allocate. The
// arithmetic must be identical to left-folding Add over vs (same
// operand order), so batched and sequential absorbs stay bit-identical.
type BatchRing[T any] interface {
	Ring[T]
	// AddAll returns acc + vs[0] + vs[1] + ..., evaluated left to right,
	// without mutating acc or any element of vs.
	AddAll(acc T, vs []T) T
}

// MutRing is an optional Ring extension for rings whose values are
// mutable handles (e.g. preallocated big.Int residues from
// internal/vecpool): the push-sum state can then run its per-cycle hot
// loops — emit, align, absorb — entirely in place, allocating nothing
// in steady state. Every operation must be value-identical to its
// immutable counterpart (DoubleInPlace to Double, AddInPlace to Add,
// AddAllInPlace to a left fold of Add), so enabling the in-place path
// never changes a trajectory, only its allocation profile. Refresh (or,
// for rings without a Refresher, Clone) must return storage independent
// of its argument: the unprepared emit hands such values out of a
// mutable state.
//
// The path is opt-in per State (see State.SetMutable) because it
// changes the aliasing contract: an in-place state mutates its own
// values, so they must be exclusively owned — never shared with callers
// the way Ring.Clone-style sharing otherwise allows.
type MutRing[T any] interface {
	Ring[T]
	// DoubleInPlace replaces a's value with 2^k·a.
	DoubleInPlace(a T, k uint)
	// AddInPlace sets acc = acc + v. Only acc is mutated.
	AddInPlace(acc, v T)
	// AddAllInPlace sets acc = acc + vs[0] + vs[1] + ..., evaluated left
	// to right. Only acc is mutated.
	AddAllInPlace(acc T, vs []T)
	// SetInPlace copies src's value into dst, reusing dst's storage.
	SetInPlace(dst, src T)
}

// MutRefresher is the in-place form of Refresher, used by a mutable
// state's prepared emit: RefreshAllInPlace gives every (message-owned)
// value of the emitted vector a fresh representation of the same value.
// It takes the whole vector so a ring can account the refreshes once
// per emit rather than once per value.
type MutRefresher[T any] interface {
	RefreshAllInPlace(vs []T)
}

// Message is the half-share a node pushes to a peer: the value vector,
// the accompanying push-sum weight and the dyadic exponent — the value
// vector V stands for V/2^Exp.
type Message[T any] struct {
	V   []T
	W   float64
	Exp int
}

// State is one node's push-sum accumulator: a vector of ring values, the
// scalar weight and a public dyadic exponent. The state stands for the
// values V/2^Exp, so the running estimate of the network-wide average
// of coordinate j is V[j]/(W·2^Exp) (decoded by the caller; for
// ciphertext rings the division happens after decryption).
//
// Halving is never applied to the values: an emit only increments Exp
// (on the state and on the outgoing message), and an absorb first
// aligns the operand with the lower exponent by doubling it — exact in
// every ring, including modular ones where a halving is a full
// multiplication by 2⁻¹. Exp is a function of the gossip schedule alone
// (how often the state's pieces were split), never of the values.
type State[T any] struct {
	ring Ring[T]
	V    []T
	W    float64
	Exp  int
	// ref, when non-nil, refreshes every emitted value.
	ref Refresher[T]
	// mut, when non-nil, routes the hot loops through the ring's
	// in-place operations (see SetMutable); mref is its in-place
	// refresh.
	mut  MutRing[T]
	mref MutRefresher[T]
	// col is the AbsorbAll column scratch, retained across batches so a
	// steady-state cycle reuses it instead of allocating.
	col []T
	// tmp is the mutable path's alignment scratch: a lower-exponent
	// message value is doubled here before it is added.
	tmp    T
	hasTmp bool
}

// NewState initializes a node's state with its own contribution and
// initial weight (1 for averaging; see package doc of internal/core for
// how Chiaroscuro derives cluster means from averages so that the
// population size cancels). The exponent starts at 0.
func NewState[T any](ring Ring[T], values []T, weight float64) (*State[T], error) {
	if ring == nil {
		return nil, errors.New("gossip: nil ring")
	}
	if len(values) == 0 {
		return nil, errors.New("gossip: empty value vector")
	}
	if weight < 0 {
		return nil, fmt.Errorf("gossip: negative weight %v", weight)
	}
	v := make([]T, len(values))
	for i := range values {
		v[i] = ring.Clone(values[i])
	}
	ref, _ := ring.(Refresher[T])
	return &State[T]{ring: ring, V: v, W: weight, ref: ref}, nil
}

// SetMutable enables the in-place hot path when the ring implements
// MutRing, and reports whether it did. The caller thereby asserts the
// state's values are exclusively owned (NewState's Clone did not share
// them with anyone who will observe later mutations) — internal/core
// arranges this by building each participant's contribution in its own
// arena. Has no effect on rings without MutRing.
func (s *State[T]) SetMutable() bool {
	if mr, ok := s.ring.(MutRing[T]); ok {
		s.mut = mr
		s.mref, _ = s.ring.(MutRefresher[T])
		return true
	}
	return false
}

// Emit splits the node's state in two and returns the outgoing half as
// a message: both halves keep the values, take half the weight and one
// more unit of exponent. Push-sum's mass conservation invariant:
// state + message = previous state (as dyadic values).
func (s *State[T]) Emit() *Message[T] {
	return s.EmitInto(nil)
}

// EmitInto is Emit writing into a caller-owned message, reusing its
// value buffer when the capacity allows (nil behaves like Emit). Reuse
// is only sound once the previous occupant of dst has been absorbed —
// e.g. the synchronous-round pattern of SimulatePushSum, or any schedule
// where a message is consumed before its sender emits again.
//
// On a mutable state (SetMutable) whose dst arrives fully prepared —
// value vector already the state's length, every slot holding a
// caller-owned mutable value — the emission is allocation-free: the
// state's values are copied (and refreshed) in dst's existing storage.
// The emitted values are then equal to, but never aliased with, the
// state's (each side mutates only its own storage afterwards).
func (s *State[T]) EmitInto(dst *Message[T]) *Message[T] {
	if dst == nil {
		dst = &Message[T]{}
	}
	s.Exp++
	s.W /= 2
	dst.W = s.W
	dst.Exp = s.Exp
	if s.mut != nil && len(dst.V) == len(s.V) {
		for i := range s.V {
			s.mut.SetInPlace(dst.V[i], s.V[i])
		}
		if s.mref != nil {
			s.mref.RefreshAllInPlace(dst.V)
		}
		return dst
	}
	if cap(dst.V) >= len(s.V) {
		dst.V = dst.V[:len(s.V)]
	} else {
		dst.V = make([]T, len(s.V))
	}
	for i := range s.V {
		if s.ref != nil {
			dst.V[i] = s.ref.Refresh(s.V[i])
		} else {
			dst.V[i] = s.ring.Clone(s.V[i])
		}
	}
	return dst
}

// check validates a message against the state's shape.
func (s *State[T]) check(m *Message[T]) error {
	if m == nil {
		return errors.New("gossip: nil message")
	}
	if len(m.V) != len(s.V) {
		return fmt.Errorf("gossip: message dimension %d != state dimension %d", len(m.V), len(s.V))
	}
	if m.Exp < 0 {
		return fmt.Errorf("gossip: negative message exponent %d", m.Exp)
	}
	return nil
}

// raise lifts the state onto exponent e ≥ s.Exp by doubling every value
// e-s.Exp times.
func (s *State[T]) raise(e int) {
	if e <= s.Exp {
		return
	}
	k := uint(e - s.Exp)
	for i := range s.V {
		if s.mut != nil {
			s.mut.DoubleInPlace(s.V[i], k)
		} else {
			s.V[i] = s.ring.Double(s.V[i], k)
		}
	}
	s.Exp = e
}

// Absorb merges a received message into the state, after aligning the
// two exponents: a message from a state that emitted more often lifts
// the state onto its exponent, a message with a lower exponent has its
// values doubled up to the state's. On a mutable state the fold happens
// in place (the message values are only read).
func (s *State[T]) Absorb(m *Message[T]) error {
	if err := s.check(m); err != nil {
		return err
	}
	s.raise(m.Exp)
	k := uint(s.Exp - m.Exp)
	for i := range s.V {
		v := m.V[i]
		switch {
		case s.mut != nil && k > 0:
			s.mut.AddInPlace(s.V[i], s.scaled(v, k))
		case s.mut != nil:
			s.mut.AddInPlace(s.V[i], v)
		case k > 0:
			s.V[i] = s.ring.Add(s.V[i], s.ring.Double(v, k))
		default:
			s.V[i] = s.ring.Add(s.V[i], v)
		}
	}
	s.W += m.W
	return nil
}

// scaled returns 2^k·v in the mutable state's alignment scratch, which
// stays valid until the next call.
func (s *State[T]) scaled(v T, k uint) T {
	if !s.hasTmp {
		s.tmp, s.hasTmp = s.ring.Double(v, k), true
		return s.tmp
	}
	s.mut.SetInPlace(s.tmp, v)
	s.mut.DoubleInPlace(s.tmp, k)
	return s.tmp
}

// AbsorbAll merges a batch of received messages in one pass — the
// batched exchange a shard worker performs when several same-iteration
// messages are waiting in a node's inbox. When every message already
// shares the state's exponent (after it is lifted onto the batch's
// highest) and the ring implements BatchRing, each coordinate is folded
// with a single accumulator (allocation-free inner loop); otherwise the
// messages are absorbed one by one. Either way the result is
// bit-identical to absorbing the messages one by one in order, and the
// whole batch is validated before any state is touched (all-or-nothing
// on malformed input).
func (s *State[T]) AbsorbAll(ms []*Message[T]) error {
	top := s.Exp
	for _, m := range ms {
		if err := s.check(m); err != nil {
			return err
		}
		if m.Exp > top {
			top = m.Exp
		}
	}
	aligned := true
	for _, m := range ms {
		aligned = aligned && m.Exp == top
	}
	br, batch := s.ring.(BatchRing[T])
	if len(ms) < 2 || !aligned || (s.mut == nil && !batch) {
		for _, m := range ms {
			_ = s.Absorb(m) // validated above
		}
		return nil
	}
	s.raise(top)
	col := s.column(ms)
	for i := range s.V {
		for j, m := range ms {
			col[j] = m.V[i]
		}
		if s.mut != nil {
			s.mut.AddAllInPlace(s.V[i], col)
		} else {
			s.V[i] = br.AddAll(s.V[i], col)
		}
	}
	s.releaseColumn(col)
	for _, m := range ms {
		s.W += m.W
	}
	return nil
}

// ReserveBatch grows the batch scratch to hold n-message columns, so an
// allocation-measurement harness can rule out scratch growth entirely
// (ordinary runs let the scratch converge to its working capacity).
func (s *State[T]) ReserveBatch(n int) {
	if cap(s.col) < n {
		s.col = make([]T, 0, n)
	}
}

// column hands out the batch scratch sized for ms, reusing the retained
// buffer when its capacity allows (a steady-state cycle then performs no
// scratch allocation at all).
func (s *State[T]) column(ms []*Message[T]) []T {
	if cap(s.col) >= len(ms) {
		return s.col[:len(ms)]
	}
	s.col = make([]T, len(ms))
	return s.col
}

// releaseColumn zeroes the scratch's value references so the retained
// buffer does not pin absorbed message values until the next batch.
func (s *State[T]) releaseColumn(col []T) {
	var zero T
	for i := range col {
		col[i] = zero
	}
}

// Weight returns the current push-sum weight.
func (s *State[T]) Weight() float64 { return s.W }

// Values returns a copy of the current value vector.
func (s *State[T]) Values() []T {
	out := make([]T, len(s.V))
	for i := range s.V {
		out[i] = s.ring.Clone(s.V[i])
	}
	return out
}

// FloatRing is the cleartext ring over float64, used by the baseline
// simulations and by the accounted (non-encrypted) cipher backend.
type FloatRing struct{}

// Zero implements Ring.
func (FloatRing) Zero() float64 { return 0 }

// Add implements Ring.
func (FloatRing) Add(a, b float64) float64 { return a + b }

// Double implements Ring: exact for every finite value far from the
// float64 range limits.
func (FloatRing) Double(a float64, k uint) float64 { return math.Ldexp(a, int(k)) }

// Clone implements Ring.
func (FloatRing) Clone(a float64) float64 { return a }

// AddAll implements BatchRing. Float addition is not associative, so the
// left-to-right order is load-bearing for bit-identity with sequential
// absorbs.
func (FloatRing) AddAll(acc float64, vs []float64) float64 {
	for _, v := range vs {
		acc += v
	}
	return acc
}

var _ BatchRing[float64] = FloatRing{}

// uniformPeer draws a random peer for node i among n nodes, excluding i.
func uniformPeer(rng *rand.Rand, n, i int) int {
	j := rng.Intn(n - 1)
	if j >= i {
		j++
	}
	return j
}
