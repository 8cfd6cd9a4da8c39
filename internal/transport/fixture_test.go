package transport

import (
	"testing"

	"chiaroscuro/internal/wire/wiretest"
)

// fixture_test.go pins the mesh envelope and checkpoint formats byte
// for byte against the committed testdata/*.hex fixtures
// (docs/WIRE.md): each fixed input must encode to its fixture, and the
// fixture must decode and re-encode to itself.

func TestFixtureEnvelopes(t *testing.T) {
	mustParse := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	h := hello{ID: 3, Population: 7, Fingerprint: 0xFEEDFACE12345678}
	buf := marshalHello(h)
	wiretest.Check(t, "env_hello", buf)
	h2, err := parseHello(buf[1:])
	mustParse(err)
	wiretest.Check(t, "env_hello", marshalHello(h2))

	buf = marshalWelcome(4)
	wiretest.Check(t, "env_welcome", buf)
	id, err := parseWelcome(buf[1:])
	mustParse(err)
	wiretest.Check(t, "env_welcome", marshalWelcome(id))

	buf = marshalReject("population mismatch")
	wiretest.Check(t, "env_reject", buf)
	reason, err := parseReject(buf[1:])
	mustParse(err)
	wiretest.Check(t, "env_reject", marshalReject(reason))

	for _, tc := range []struct {
		name string
		done bool
	}{{"env_tick", false}, {"env_tick_done", true}} {
		buf = marshalTick(9, tc.done)
		wiretest.Check(t, tc.name, buf)
		e, done, err := parseTick(buf[1:])
		mustParse(err)
		wiretest.Check(t, tc.name, marshalTick(e, done))
	}

	buf = marshalData(6, []byte("gossip-payload"))
	wiretest.Check(t, "env_data", buf)
	e, payload, err := parseData(buf[1:])
	mustParse(err)
	wiretest.Check(t, "env_data", marshalData(e, payload))

	wiretest.Check(t, "env_bye", marshalBye())

	buf = marshalKey(keyRoundResponse, []byte("dkg-response"))
	wiretest.Check(t, "env_key", buf)
	round, payload, err := parseKey(buf[1:])
	mustParse(err)
	wiretest.Check(t, "env_key", marshalKey(round, payload))

	r := resume{ID: 2, Population: 5, Fingerprint: 0xABCD, LastSeq: 17}
	buf = marshalResume(r)
	wiretest.Check(t, "env_resume", buf)
	r2, err := parseResume(buf[1:])
	mustParse(err)
	wiretest.Check(t, "env_resume", marshalResume(r2))

	buf = marshalResumeOK(4, 977)
	wiretest.Check(t, "env_resume_ok", buf)
	id, seq, err := parseResumeOK(buf[1:])
	mustParse(err)
	wiretest.Check(t, "env_resume_ok", marshalResumeOK(id, seq))
}

func TestFixtureCheckpoint(t *testing.T) {
	buf := encodeCheckpoint(sampleCheckpoint())
	wiretest.Check(t, "checkpoint", buf)
	ck, err := decodeCheckpoint(buf)
	if err != nil {
		t.Fatal(err)
	}
	wiretest.Check(t, "checkpoint", encodeCheckpoint(ck))
}
