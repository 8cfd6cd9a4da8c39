package gossip

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"chiaroscuro/internal/fixedpoint"
)

// Halve is the pre-dyadic gossip primitive, kept as the test oracle:
// multiplication by 2^{-1} mod M in its division-free form (even
// residues shift right; odd residues become (a+M)/2, exact because M is
// odd).
func (r *ModRing) Halve(a *big.Int) *big.Int {
	out := new(big.Int)
	if a.Bit(0) == 0 {
		return out.Rsh(a, 1)
	}
	out.Add(a, r.M)
	return out.Rsh(out, 1)
}

// halvingState is the oracle push-sum state: values pre-scaled by
// 2^preScale at creation, every emit multiplies both halves by 2^{-1}
// mod M, absorbs add. It decodes to V/2^preScale, exact while no piece
// has been halved more than preScale times.
type halvingState struct {
	ring *ModRing
	v    []*big.Int
	w    float64
}

func (h *halvingState) emit() *halvingState {
	out := &halvingState{ring: h.ring, v: make([]*big.Int, len(h.v))}
	for i := range h.v {
		h.v[i] = h.ring.Halve(h.v[i])
		out.v[i] = new(big.Int).Set(h.v[i])
	}
	h.w /= 2
	out.w = h.w
	return out
}

func (h *halvingState) absorb(m *halvingState) {
	for i := range h.v {
		h.v[i] = h.ring.Add(h.v[i], m.v[i])
	}
	h.w += m.w
}

// signedRat reads residue v mod M as a signed integer (above M/2 is
// negative) divided by 2^exp.
func signedRat(v, M *big.Int, exp int) *big.Rat {
	s := new(big.Int).Set(v)
	if s.Cmp(new(big.Int).Rsh(M, 1)) > 0 {
		s.Sub(s, M)
	}
	return new(big.Rat).SetFrac(s, new(big.Int).Lsh(big.NewInt(1), uint(exp)))
}

// dyadicNode pairs one node's dyadic state with its oracle twin.
type dyadicNode struct {
	st     *State[*big.Int]
	oracle *halvingState
}

// inFlight is a message pair (dyadic, oracle) waiting for delivery.
type inFlight struct {
	to     int
	msg    *Message[*big.Int]
	oracle *halvingState
}

// TestDyadicStateMatchesHalvingOracle drives the dyadic State and the
// old 2^{-1}-halving state through the same random gossip schedules —
// uneven emit rates, delayed and lost messages (so a message often
// meets a state with a different exponent in either direction),
// batched deliveries and churn rejoins that restart a node from a fresh
// contribution — and requires every node's decoded rationals to match
// exactly after every step, on the immutable and the in-place path.
func TestDyadicStateMatchesHalvingOracle(t *testing.T) {
	M := new(big.Int).Lsh(big.NewInt(1), 256)
	M.Sub(M, big.NewInt(1))
	ring, err := NewModRing(M)
	if err != nil {
		t.Fatal(err)
	}
	const preScale = 80 // the oracle's halving budget; schedules stay below it
	sawLower, sawHigher := false, false
	for seed := int64(1); seed <= 40; seed++ {
		for _, mutable := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			const n, dim = 5, 3
			fresh := func() ([]*big.Int, []*big.Int) {
				v := make([]*big.Int, dim)
				o := make([]*big.Int, dim)
				for i := range v {
					x := big.NewInt(rng.Int63n(1<<20) - 1<<19)
					v[i] = new(big.Int).Mod(x, M)
					o[i] = new(big.Int).Mod(new(big.Int).Lsh(x, preScale), M)
				}
				return v, o
			}
			newNode := func() *dyadicNode {
				v, o := fresh()
				st, err := NewState[*big.Int](ring, v, 1)
				if err != nil {
					t.Fatal(err)
				}
				if mutable {
					st.SetMutable()
				}
				return &dyadicNode{st: st, oracle: &halvingState{ring: ring, v: o, w: 1}}
			}
			nodes := make([]*dyadicNode, n)
			for i := range nodes {
				nodes[i] = newNode()
			}
			var queue []inFlight
			for step := 0; step < 120; step++ {
				switch r := rng.Intn(10); {
				case r < 5: // a node emits to a random peer
					i := rng.Intn(n)
					if nodes[i].st.Exp >= preScale-20 {
						continue
					}
					to := rng.Intn(n - 1)
					if to >= i {
						to++
					}
					m := nodes[i].st.Emit()
					om := nodes[i].oracle.emit()
					if rng.Intn(8) == 0 {
						continue // lost: the mass leaves both twins alike
					}
					queue = append(queue, inFlight{to: to, msg: m, oracle: om})
				case r < 9 && len(queue) > 0: // deliver a random backlog slice
					k := 1 + rng.Intn(len(queue))
					if k > 3 {
						k = 3
					}
					byNode := map[int][]inFlight{}
					var order []int
					for _, f := range queue[:k] {
						if byNode[f.to] == nil {
							order = append(order, f.to)
						}
						byNode[f.to] = append(byNode[f.to], f)
					}
					queue = queue[k:]
					for _, to := range order {
						fs := byNode[to]
						batch := make([]*Message[*big.Int], len(fs))
						for j, f := range fs {
							batch[j] = f.msg
							switch e := nodes[to].st.Exp; {
							case f.msg.Exp < e:
								sawLower = true
							case f.msg.Exp > e:
								sawHigher = true
							}
							nodes[to].oracle.absorb(f.oracle)
						}
						if err := nodes[to].st.AbsorbAll(batch); err != nil {
							t.Fatal(err)
						}
					}
				case r == 9: // churn: a node rejoins from scratch
					nodes[rng.Intn(n)] = newNode()
				}
				for i, nd := range nodes {
					if nd.st.W != nd.oracle.w {
						t.Fatalf("seed %d mutable=%v step %d node %d: weight %v != oracle %v",
							seed, mutable, step, i, nd.st.W, nd.oracle.w)
					}
					for c := range nd.st.V {
						got := signedRat(nd.st.V[c], M, nd.st.Exp)
						want := signedRat(nd.oracle.v[c], M, preScale)
						if got.Cmp(want) != 0 {
							t.Fatalf("seed %d mutable=%v step %d node %d coord %d: dyadic %v != oracle %v",
								seed, mutable, step, i, c, got, want)
						}
					}
				}
			}
		}
	}
	if !sawLower || !sawHigher {
		t.Fatalf("schedules never aligned both ways (lower %v, higher %v)", sawLower, sawHigher)
	}
}

// TestDyadicPackedBiasMatchesOracle covers the packed sign-bias path:
// slots packed with bias 2^bound (dyadic) and with the oracle's
// pre-scaled contributions under bias 2^(bound+preScale) evolve through
// the same schedule; after the step-2c style slot-wise addition of two
// biased sides, Unbias with weight 2w·2^Exp must recover exactly the
// oracle's Unbias(2w) aggregate, rescaled.
func TestDyadicPackedBiasMatchesOracle(t *testing.T) {
	const (
		preScale  = 24
		boundBits = 20
		n         = 4
		coords    = 5
	)
	head := uint(preScale + 3 + 3)
	dyLayout, err := fixedpoint.NewSlotLayout(255, boundBits, head)
	if err != nil {
		t.Fatal(err)
	}
	orLayout, err := fixedpoint.NewSlotLayout(255, boundBits+preScale, head-preScale)
	if err != nil {
		t.Fatal(err)
	}
	if dyLayout.Slots() != orLayout.Slots() || dyLayout.SlotBits() != orLayout.SlotBits() {
		t.Fatal("moving the exponent budget from bias to headroom changed the slot geometry")
	}
	M := new(big.Int).Lsh(big.NewInt(1), 256)
	M.Sub(M, big.NewInt(1))
	ring, err := NewModRing(M)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	pack := func(l *fixedpoint.SlotLayout, xs []*big.Int, shift uint) []*big.Int {
		vs := make([]*big.Int, len(xs))
		for i, x := range xs {
			vs[i] = new(big.Int).Lsh(x, shift)
		}
		p, err := l.Pack(vs)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	type node struct {
		st     *State[*big.Int]
		oracle *halvingState
	}
	nodes := make([]node, n)
	for i := range nodes {
		var dy, or []*big.Int
		for side := 0; side < 2; side++ {
			xs := make([]*big.Int, coords)
			for c := range xs {
				xs[c] = big.NewInt(rng.Int63n(1<<boundBits) - 1<<(boundBits-1))
			}
			dy = append(dy, pack(dyLayout, xs, 0)...)
			or = append(or, pack(orLayout, xs, preScale)...)
		}
		st, err := NewState[*big.Int](ring, dy, 1)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node{st: st, oracle: &halvingState{ring: ring, v: or, w: 1}}
	}
	// Uneven schedule: node 0 emits twice as often, so messages meet
	// states on both sides of their exponent.
	for step := 0; step < 18; step++ {
		i := step % n
		if step%3 == 0 {
			i = 0
		}
		to := (i + 1 + rng.Intn(n-1)) % n
		m, om := nodes[i].st.Emit(), nodes[i].oracle.emit()
		if err := nodes[to].st.Absorb(m); err != nil {
			t.Fatal(err)
		}
		nodes[to].oracle.absorb(om)
	}
	groups := dyLayout.Groups(coords)
	for i, nd := range nodes {
		sum := func(v []*big.Int) []*big.Int {
			out := make([]*big.Int, groups)
			for g := range out {
				out[g] = ring.Add(v[g], v[groups+g])
			}
			return out
		}
		dyRaw, err := dyLayout.Unpack(sum(nd.st.V), coords)
		if err != nil {
			t.Fatal(err)
		}
		orRaw, err := orLayout.Unpack(sum(nd.oracle.v), coords)
		if err != nil {
			t.Fatal(err)
		}
		w := nd.st.W
		for c := range dyRaw {
			got, err := dyLayout.Unbias(dyRaw[c], 2*math.Ldexp(w, nd.st.Exp))
			if err != nil {
				t.Fatalf("node %d coord %d: %v", i, c, err)
			}
			want, err := orLayout.Unbias(orRaw[c], 2*w)
			if err != nil {
				t.Fatalf("node %d coord %d: oracle %v", i, c, err)
			}
			g := new(big.Rat).SetFrac(got, new(big.Int).Lsh(big.NewInt(1), uint(nd.st.Exp)))
			o := new(big.Rat).SetFrac(want, new(big.Int).Lsh(big.NewInt(1), preScale))
			if g.Cmp(o) != 0 {
				t.Fatalf("node %d coord %d: dyadic %v != oracle %v", i, c, g, o)
			}
		}
	}
}
