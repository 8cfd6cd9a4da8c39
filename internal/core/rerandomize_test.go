package core

import (
	"math/big"
	"testing"
)

// TestDJRefreshRerandomizes pins the traffic-analysis defence: the emit
// refresh of the same ciphertext twice must yield different ciphertexts
// (fresh randomness per hop), distinct from the input, that still
// decrypt to the same plaintext.
func TestDJRefreshRerandomizes(t *testing.T) {
	s, err := NewDamgardJurikSuite(128, 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Encrypt(big.NewInt(10))
	if err != nil {
		t.Fatal(err)
	}
	h1, err := s.Refresh(c)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s.Refresh(c)
	if err != nil {
		t.Fatal(err)
	}
	if h1.(*big.Int).Cmp(h2.(*big.Int)) == 0 || h1.(*big.Int).Cmp(c.(*big.Int)) == 0 {
		t.Fatal("refreshed ciphertexts repeat — hops are traceable")
	}
	for _, h := range []Cipher{h1, h2} {
		if got := decryptVia(t, s, h, []int{1, 3}); got.Int64() != 10 {
			t.Fatalf("refreshed ciphertext decrypts to %v, want 10", got)
		}
	}
}
