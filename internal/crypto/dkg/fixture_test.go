package dkg

import (
	"math/big"
	"testing"

	"chiaroscuro/internal/wire/wiretest"
)

// fixture_test.go pins the three ceremony artifact encodings byte for
// byte against the committed testdata/*.hex fixtures (docs/WIRE.md):
// each fixed input must encode to its fixture, and the fixture must
// decode and re-encode to itself.

func must(t *testing.T) func([]byte, error) []byte {
	return func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
}

func TestFixtureDeal(t *testing.T) {
	buf := must(t)(MarshalDeal(seedDeal()))
	wiretest.Check(t, "deal", buf)
	d, err := UnmarshalDeal(buf)
	if err != nil {
		t.Fatal(err)
	}
	wiretest.Check(t, "deal", must(t)(MarshalDeal(d)))
}

func TestFixtureResponse(t *testing.T) {
	r := &Response{From: 2, Verdicts: []DealerVerdict{
		{Dealer: 1, Complaint: true},
		{Dealer: 4, Digest: [32]byte{1, 2, 3, 31: 0xff}},
	}}
	buf := must(t)(MarshalResponse(r))
	wiretest.Check(t, "response", buf)
	back, err := UnmarshalResponse(buf)
	if err != nil {
		t.Fatal(err)
	}
	wiretest.Check(t, "response", must(t)(MarshalResponse(back)))
}

func TestFixtureJustification(t *testing.T) {
	for name, j := range map[string]*Justification{
		"justification_empty": {},
		"justification": {
			Dealer:  7,
			Commits: []*big.Int{big.NewInt(9), new(big.Int).Lsh(big.NewInt(3), 130)},
			Shares:  []JustShare{{Receiver: 2, Share: big.NewInt(-4)}, {Receiver: 5, Share: new(big.Int)}, {Receiver: 6, Share: big.NewInt(1 << 40)}},
		},
	} {
		buf := must(t)(MarshalJustification(j))
		wiretest.Check(t, name, buf)
		back, err := UnmarshalJustification(buf)
		if err != nil {
			t.Fatal(err)
		}
		wiretest.Check(t, name, must(t)(MarshalJustification(back)))
	}
}
