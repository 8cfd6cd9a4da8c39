package wire

import (
	"math/big"
	"testing"

	"chiaroscuro/internal/crypto/damgardjurik"
	"chiaroscuro/internal/wire/wiretest"
)

// fixture_test.go pins every artifact encoding byte for byte against
// the committed testdata/*.hex fixtures (docs/WIRE.md): each fixed
// input must encode to its fixture, and the fixture must decode and
// re-encode to itself.

func fixtureInt(hex string) *big.Int {
	v, ok := new(big.Int).SetString(hex, 16)
	if !ok {
		panic("bad fixture integer " + hex)
	}
	return v
}

func fixturePublicKey(t *testing.T) *damgardjurik.PublicKey {
	t.Helper()
	p, q, err := damgardjurik.FixturePrimes(128)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := damgardjurik.NewPublicKey(new(big.Int).Mul(p, q), 1)
	if err != nil {
		t.Fatal(err)
	}
	return pk
}

func fixtureCiphers() []*big.Int {
	return []*big.Int{
		fixtureInt("0123456789abcdef0123456789abcdef"),
		big.NewInt(1),
		fixtureInt("fedcba9876543210fedcba9876543210fedcba9876543210"),
	}
}

// must unwraps an encoder's result, failing t on error.
func must(t *testing.T) func([]byte, error) []byte {
	return func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
}

func TestFixturePublicKey(t *testing.T) {
	pk := fixturePublicKey(t)
	wiretest.Check(t, "public_key", must(t)(MarshalPublicKey(pk)))
	back, err := UnmarshalPublicKey(must(t)(MarshalPublicKey(pk)))
	if err != nil {
		t.Fatal(err)
	}
	wiretest.Check(t, "public_key", must(t)(MarshalPublicKey(back)))
}

func TestFixtureKeyShare(t *testing.T) {
	ks := damgardjurik.KeyShare{Index: 3, Value: fixtureInt("0badc0ffee0ddf00d5eedbeefcafe")}
	buf := must(t)(MarshalKeyShare(ks))
	wiretest.Check(t, "key_share", buf)
	back, err := UnmarshalKeyShare(buf)
	if err != nil {
		t.Fatal(err)
	}
	wiretest.Check(t, "key_share", must(t)(MarshalKeyShare(back)))
}

func TestFixturePartial(t *testing.T) {
	p := damgardjurik.PartialDecryption{Index: 2, Value: fixtureInt("31337deadbeef")}
	buf := must(t)(MarshalPartial(p))
	wiretest.Check(t, "partial", buf)
	back, err := UnmarshalPartial(buf)
	if err != nil {
		t.Fatal(err)
	}
	wiretest.Check(t, "partial", must(t)(MarshalPartial(back)))
}

func TestFixtureCiphertext(t *testing.T) {
	pk := fixturePublicKey(t)
	buf := must(t)(MarshalCiphertext(pk, fixtureCiphers()[0]))
	wiretest.Check(t, "ciphertext", buf)
	back, err := UnmarshalCiphertext(pk, buf)
	if err != nil {
		t.Fatal(err)
	}
	wiretest.Check(t, "ciphertext", must(t)(MarshalCiphertext(pk, back)))
}

func TestFixtureCiphertextVector(t *testing.T) {
	pk := fixturePublicKey(t)
	buf := must(t)(MarshalCiphertextVector(pk, fixtureCiphers()))
	wiretest.Check(t, "ciphertext_vector", buf)
	back, err := UnmarshalCiphertextVector(pk, buf)
	if err != nil {
		t.Fatal(err)
	}
	wiretest.Check(t, "ciphertext_vector", must(t)(MarshalCiphertextVector(pk, back)))
}

func TestFixtureResidueVector(t *testing.T) {
	m := fixtureInt("1fffffffffffffff") // 2^61 - 1
	vs := []*big.Int{big.NewInt(0), big.NewInt(1), fixtureInt("1ffffffffffffffe"), big.NewInt(12345)}
	buf := must(t)(MarshalResidueVector(m, vs))
	wiretest.Check(t, "residue_vector", buf)
	back, err := UnmarshalResidueVector(m, buf)
	if err != nil {
		t.Fatal(err)
	}
	wiretest.Check(t, "residue_vector", must(t)(MarshalResidueVector(m, back)))
}
