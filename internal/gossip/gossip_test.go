package gossip

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewStateValidation(t *testing.T) {
	ring := FloatRing{}
	if _, err := NewState[float64](nil, []float64{1}, 1); err == nil {
		t.Fatal("nil ring should error")
	}
	if _, err := NewState[float64](ring, nil, 1); err == nil {
		t.Fatal("empty values should error")
	}
	if _, err := NewState[float64](ring, []float64{1}, -1); err == nil {
		t.Fatal("negative weight should error")
	}
}

// dyadic decodes a float state's values: V/2^Exp.
func dyadic(v []float64, exp int) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = math.Ldexp(x, -exp)
	}
	return out
}

func TestEmitHalvesAndConservesMass(t *testing.T) {
	ring := FloatRing{}
	st, err := NewState[float64](ring, []float64{8, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	msg := st.Emit()
	if msg.W != 0.5 || st.Weight() != 0.5 {
		t.Fatalf("weights after emit: msg=%v state=%v", msg.W, st.Weight())
	}
	if st.Exp != 1 || msg.Exp != 1 {
		t.Fatalf("exponents after emit: state=%d msg=%d, want 1", st.Exp, msg.Exp)
	}
	v, mv := dyadic(st.Values(), st.Exp), dyadic(msg.V, msg.Exp)
	if v[0] != 4 || v[1] != 2 || mv[0] != 4 || mv[1] != 2 {
		t.Fatalf("values after emit: state=%v msg=%v", v, mv)
	}
}

func TestAbsorbAddsMass(t *testing.T) {
	ring := FloatRing{}
	a, _ := NewState[float64](ring, []float64{1, 2}, 1)
	b, _ := NewState[float64](ring, []float64{3, 4}, 1)
	msg := a.Emit()
	if err := b.Absorb(msg); err != nil {
		t.Fatal(err)
	}
	v := dyadic(b.Values(), b.Exp)
	if v[0] != 3.5 || v[1] != 5 || b.Weight() != 1.5 {
		t.Fatalf("after absorb: v=%v w=%v", v, b.Weight())
	}
}

func TestAbsorbValidation(t *testing.T) {
	ring := FloatRing{}
	st, _ := NewState[float64](ring, []float64{1}, 1)
	if err := st.Absorb(nil); err == nil {
		t.Fatal("nil message should error")
	}
	if err := st.Absorb(&Message[float64]{V: []float64{1, 2}, W: 1}); err == nil {
		t.Fatal("dimension mismatch should error")
	}
}

func TestValuesReturnsCopy(t *testing.T) {
	ring := FloatRing{}
	st, _ := NewState[float64](ring, []float64{1}, 1)
	v := st.Values()
	v[0] = 99
	if st.Values()[0] == 99 {
		t.Fatal("Values aliases internal state")
	}
}

func TestStateDoesNotAliasInput(t *testing.T) {
	ring := FloatRing{}
	in := []float64{1, 2}
	st, _ := NewState[float64](ring, in, 1)
	in[0] = 42
	if st.Values()[0] == 42 {
		t.Fatal("state aliases caller slice")
	}
}

func TestPairMassConservation(t *testing.T) {
	// state + emitted message == previous state, exactly, for dyadics.
	ring := FloatRing{}
	st, _ := NewState[float64](ring, []float64{5, 3}, 1)
	msg := st.Emit()
	v, mv := dyadic(st.Values(), st.Exp), dyadic(msg.V, msg.Exp)
	if v[0]+mv[0] != 5 || v[1]+mv[1] != 3 {
		t.Fatal("mass not conserved across emit")
	}
	if st.Weight()+msg.W != 1 {
		t.Fatal("weight not conserved across emit")
	}
}

func TestModRing(t *testing.T) {
	M := big.NewInt(101) // odd
	r, err := NewModRing(M)
	if err != nil {
		t.Fatal(err)
	}
	a := big.NewInt(100)
	b := big.NewInt(2)
	if got := r.Add(a, b); got.Int64() != 1 {
		t.Fatalf("(100+2) mod 101 = %v", got)
	}
	// Halving an even value is plain division.
	if got := r.Halve(big.NewInt(10)); got.Int64() != 5 {
		t.Fatalf("halve(10) = %v", got)
	}
	// Halving an odd value x gives y with 2y ≡ x.
	y := r.Halve(big.NewInt(7))
	two := big.NewInt(2)
	back := new(big.Int).Mul(y, two)
	back.Mod(back, M)
	if back.Int64() != 7 {
		t.Fatalf("2·halve(7) = %v, want 7", back)
	}
	if r.Zero().Sign() != 0 {
		t.Fatal("zero is not zero")
	}
	c := r.Clone(a)
	c.SetInt64(5)
	if a.Int64() != 100 {
		t.Fatal("clone aliases")
	}
}

func TestModRingValidation(t *testing.T) {
	if _, err := NewModRing(nil); err == nil {
		t.Fatal("nil modulus should error")
	}
	if _, err := NewModRing(big.NewInt(100)); err == nil {
		t.Fatal("even modulus should error")
	}
	if _, err := NewModRing(big.NewInt(-3)); err == nil {
		t.Fatal("negative modulus should error")
	}
}

func TestModRingHalveInverseProperty(t *testing.T) {
	M := new(big.Int).Lsh(big.NewInt(1), 61)
	M.Sub(M, big.NewInt(1))
	r, err := NewModRing(M)
	if err != nil {
		t.Fatal(err)
	}
	two := big.NewInt(2)
	f := func(raw int64) bool {
		v := new(big.Int).SetInt64(raw)
		v.Mod(v, M)
		h := r.Halve(v)
		back := new(big.Int).Mul(h, two)
		back.Mod(back, M)
		return back.Cmp(v) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFloatAndModRingAgreeOnPreScaledGossip(t *testing.T) {
	// The core protocol guarantee: running the same exchange schedule on
	// floats and on pre-scaled ring residues gives the same result.
	M := new(big.Int).Lsh(big.NewInt(1), 80)
	M.Sub(M, big.NewInt(1))
	ring, err := NewModRing(M)
	if err != nil {
		t.Fatal(err)
	}
	const preScale = 12 // a constant scale: the dyadic exponent does the halving
	encode := func(x int64) *big.Int {
		return new(big.Int).Lsh(big.NewInt(x), preScale)
	}
	fa, _ := NewState[float64](FloatRing{}, []float64{48}, 1)
	fb, _ := NewState[float64](FloatRing{}, []float64{16}, 1)
	ma, _ := NewState[*big.Int](ring, []*big.Int{encode(48)}, 1)
	mb, _ := NewState[*big.Int](ring, []*big.Int{encode(16)}, 1)

	// A fixed exchange schedule: a->b, b->a, a->b.
	_ = fb.Absorb(fa.Emit())
	_ = mb.Absorb(ma.Emit())
	_ = fa.Absorb(fb.Emit())
	_ = ma.Absorb(mb.Emit())
	_ = fb.Absorb(fa.Emit())
	_ = mb.Absorb(ma.Emit())

	for name, pair := range map[string]struct {
		f *State[float64]
		m *State[*big.Int]
	}{"a": {fa, ma}, "b": {fb, mb}} {
		fEst := dyadic(pair.f.Values(), pair.f.Exp)[0] / pair.f.Weight()
		raw := pair.m.Values()[0]
		mEst := float64(raw.Int64()) / math.Ldexp(1, preScale+pair.m.Exp) / pair.m.Weight()
		if math.Abs(fEst-mEst) > 1e-9 {
			t.Fatalf("%s: float est %v != ring est %v", name, fEst, mEst)
		}
	}
}

func TestUniformPeerExcludesSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		p := uniformPeer(rng, 5, 2)
		if p == 2 || p < 0 || p > 4 {
			t.Fatalf("uniformPeer returned %d", p)
		}
	}
}
