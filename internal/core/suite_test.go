package core

import (
	"math/big"
	"testing"
)

func suites(t *testing.T) map[string]CipherSuite {
	t.Helper()
	plain, err := NewPlainSuite(1024, 1, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	dj, err := NewDamgardJurikSuite(128, 1, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]CipherSuite{"plain": plain, "dj": dj}
}

// partialOf is party's partial decryption of the single cipher c.
func partialOf(s CipherSuite, party int, c Cipher) (Partial, error) {
	var p [1]Partial
	err := s.PartialDecrypt(party, p[:], []Cipher{c})
	return p[0], err
}

// decryptVia opens a cipher with partials from the given parties.
func decryptVia(t *testing.T, s CipherSuite, c Cipher, parties []int) *big.Int {
	t.Helper()
	parts := make([]Partial, len(parties))
	for i, p := range parties {
		pd, err := partialOf(s, p, c)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = pd
	}
	m, err := s.Combine(parts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSuitesEncryptDecryptRoundTrip(t *testing.T) {
	for name, s := range suites(t) {
		m := big.NewInt(987654)
		c, err := s.Encrypt(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := decryptVia(t, s, c, []int{1, 3, 5})
		if got.Cmp(m) != 0 {
			t.Fatalf("%s: roundtrip = %v, want %v", name, got, m)
		}
	}
}

func TestSuitesHomomorphicAdd(t *testing.T) {
	for name, s := range suites(t) {
		a, _ := s.Encrypt(big.NewInt(1000))
		b, _ := s.Encrypt(big.NewInt(234))
		sum, err := s.Add(a, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := decryptVia(t, s, sum, []int{2, 4, 5}); got.Int64() != 1234 {
			t.Fatalf("%s: sum = %v", name, got)
		}
	}
}

// TestSuitesDoubleIsExactRingDouble pins the alignment primitive:
// Double(c, k) opens to 2^k·v mod M — including past the modulus, where
// the ring wraps — and agrees with k chained additions c+c; Refresh
// keeps the plaintext.
func TestSuitesDoubleIsExactRingDouble(t *testing.T) {
	for name, s := range suites(t) {
		M := s.PlainModulus()
		for _, v := range []*big.Int{big.NewInt(8), big.NewInt(7), big.NewInt(0), new(big.Int).Sub(M, big.NewInt(3))} {
			c, _ := s.Encrypt(v)
			for _, k := range []uint{1, 3, 40} {
				d, err := s.Double(c, k)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := new(big.Int).Lsh(v, k)
				want.Mod(want, M)
				if got := decryptVia(t, s, d, []int{1, 2, 3}); got.Cmp(want) != 0 {
					t.Fatalf("%s: double(%v, %d) = %v, want %v", name, v, k, got, want)
				}
			}
			chained := c
			for i := 0; i < 3; i++ {
				chained, _ = s.Add(chained, chained)
			}
			d, _ := s.Double(c, 3)
			if a, b := decryptVia(t, s, chained, []int{1, 2, 3}), decryptVia(t, s, d, []int{3, 4, 5}); a.Cmp(b) != 0 {
				t.Fatalf("%s: double(c, 3) = %v, chained adds = %v", name, b, a)
			}
			r, err := s.Refresh(c)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := decryptVia(t, s, r, []int{2, 4, 5}); got.Cmp(v) != 0 {
				t.Fatalf("%s: refresh(%v) opens to %v", name, v, got)
			}
		}
	}
}

func TestSuitesThresholdEnforced(t *testing.T) {
	for name, s := range suites(t) {
		c, _ := s.Encrypt(big.NewInt(5))
		p1, _ := partialOf(s, 1, c)
		p2, _ := partialOf(s, 2, c)
		if _, err := s.Combine([]Partial{p1, p2}); err == nil {
			t.Fatalf("%s: 2 partials combined despite threshold 3", name)
		}
		// Duplicates don't count toward the threshold.
		if _, err := s.Combine([]Partial{p1, p1, p2}); err == nil {
			t.Fatalf("%s: duplicate partials accepted", name)
		}
	}
}

func TestSuitesPartyValidation(t *testing.T) {
	for name, s := range suites(t) {
		c, _ := s.Encrypt(big.NewInt(5))
		if _, err := partialOf(s, 0, c); err == nil {
			t.Fatalf("%s: party 0 accepted", name)
		}
		if _, err := partialOf(s, 6, c); err == nil {
			t.Fatalf("%s: party 6 accepted (only 5 shares)", name)
		}
	}
}

func TestSuitesForeignCipherRejected(t *testing.T) {
	all := suites(t)
	plain, dj := all["plain"], all["dj"]
	cp, _ := plain.Encrypt(big.NewInt(1))
	cd, _ := dj.Encrypt(big.NewInt(1))
	if _, err := plain.Add(cd, cd); err == nil {
		t.Fatal("plain suite accepted a DJ cipher")
	}
	if _, err := dj.Add(cp, cp); err == nil {
		t.Fatal("dj suite accepted a plain cipher")
	}
	if _, err := plain.Refresh(cd); err == nil {
		t.Fatal("plain refresh accepted a DJ cipher")
	}
	if _, err := dj.Double(cp, 1); err == nil {
		t.Fatal("dj double accepted a plain cipher")
	}
	if _, err := partialOf(dj, 1, cp); err == nil {
		t.Fatal("dj partial decrypt accepted a plain cipher")
	}
}

func TestSuitesOpCounting(t *testing.T) {
	for name, s := range suites(t) {
		before := s.Counts()
		c, _ := s.Encrypt(big.NewInt(9))
		_, _ = s.Add(c, c)
		_, _ = s.Refresh(c)
		_, _ = s.Double(c, 3)
		p, _ := partialOf(s, 1, c)
		p2, _ := partialOf(s, 2, c)
		p3, _ := partialOf(s, 3, c)
		_, _ = s.Combine([]Partial{p, p2, p3})
		after := s.Counts()
		if after.Encrypts != before.Encrypts+1 ||
			after.Adds != before.Adds+1 ||
			after.Halvings != before.Halvings+1 ||
			after.Squarings != before.Squarings+3 ||
			after.PartialDecrypts != before.PartialDecrypts+3 ||
			after.Combines != before.Combines+1 {
			t.Fatalf("%s: counts before %+v after %+v", name, before, after)
		}
	}
}

func TestSuitesMetadata(t *testing.T) {
	for name, s := range suites(t) {
		if s.Parties() != 5 || s.Threshold() != 3 {
			t.Fatalf("%s: parties/threshold = %d/%d", name, s.Parties(), s.Threshold())
		}
		if s.CipherBytes() <= 0 {
			t.Fatalf("%s: cipher bytes = %d", name, s.CipherBytes())
		}
		if s.PlainModulus().Sign() <= 0 || s.PlainModulus().Bit(0) != 1 {
			t.Fatalf("%s: plain modulus must be positive and odd", name)
		}
		if s.Name() == "" {
			t.Fatalf("%s: empty name", name)
		}
	}
}

func TestPlainSuiteValidation(t *testing.T) {
	if _, err := NewPlainSuite(4, 1, 3, 2); err == nil {
		t.Fatal("tiny modulus accepted")
	}
	if _, err := NewPlainSuite(64, 1, 0, 1); err == nil {
		t.Fatal("0 parties accepted")
	}
	if _, err := NewPlainSuite(64, 1, 3, 4); err == nil {
		t.Fatal("threshold > parties accepted")
	}
}

func TestPlainSuiteDisagreeingPartialsRejected(t *testing.T) {
	s, err := NewPlainSuite(1024, 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Encrypt(big.NewInt(1))
	b, _ := s.Encrypt(big.NewInt(2))
	pa, _ := partialOf(s, 1, a)
	pb, _ := partialOf(s, 2, b)
	if _, err := s.Combine([]Partial{pa, pb}); err == nil {
		t.Fatal("partials of different ciphertexts combined")
	}
}

func TestCipherRingAdapter(t *testing.T) {
	s, err := NewPlainSuite(1024, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := newCipherRing(s)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Encrypt(big.NewInt(6))
	sum := ring.Add(a, ring.Zero())
	if got := decryptVia(t, s, sum, []int{1}); got.Int64() != 6 {
		t.Fatalf("ring add with zero = %v", got)
	}
	h := ring.Double(a, 2)
	if got := decryptVia(t, s, h, []int{2}); got.Int64() != 24 {
		t.Fatalf("ring double(6, 2) = %v", got)
	}
	if ring.Clone(a) == nil {
		t.Fatal("clone returned nil")
	}
}
