package core

import (
	"slices"
	"testing"

	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/wire/wiretest"
)

// midGossipPayloads encodes one payload of each network kind from the
// mid-gossip node 0 of m: its current push-sum message (without
// emitting, so the node is left untouched), a decrypt request over the
// first side of its push-sum ciphers, and the suite's response to it
// from key share 2.
func midGossipPayloads(t testing.TB, m *memMesh) (gossipRaw, reqRaw, respRaw []byte) {
	t.Helper()
	nd := m.nodes[0]
	p, r := nd.pt, nd.pt.run
	st := p.diptych.Means
	msg := &gossip.Message[Cipher]{V: st.Values(), W: st.Weight(), Exp: st.Exp}
	req := &decryptRequest{Iter: p.iter, Ciphers: st.Values()[:r.sideCiphers]}
	resp := &decryptResponse{Iter: p.iter}
	for _, c := range req.Ciphers {
		pd, err := partialOf(r.suite, 2, c)
		if err != nil {
			t.Fatal(err)
		}
		resp.Partials = append(resp.Partials, pd)
	}
	var raws [3][]byte
	for i, pl := range []any{&gossipPayload{Iter: p.iter, Centroids: p.diptych.Centroids, Msg: msg}, req, resp} {
		raw, err := nd.EncodePayload(pl)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = raw
	}
	return raws[0], raws[1], raws[2]
}

// TestFixtureSnapshotAndPayloads pins the snapshot and payload formats
// byte for byte against the committed testdata/*.hex fixtures
// (docs/WIRE.md): the mid-gossip node's snapshot and each payload kind
// must encode to their fixtures, and each fixture must decode and
// re-encode to itself.
func TestFixtureSnapshotAndPayloads(t *testing.T) {
	data, params := snapshotTestConfig()
	m := midGossipNode(t)
	defer m.close()

	snap, err := m.nodes[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wiretest.Check(t, "snapshot_mid_gossip", snap)
	restored, err := RestoreNode(data, params, 0, snap)
	if err != nil {
		t.Fatal(err)
	}
	again, err := restored.Snapshot()
	restored.Close()
	if err != nil {
		t.Fatal(err)
	}
	wiretest.Check(t, "snapshot_mid_gossip", again)

	// A decrypt-phase snapshot of the second iteration covers the
	// remaining sections: pending ciphertexts, partials, the asked set,
	// the outstanding window and a disclosed history entry.
	dm := decryptPhaseNode(t)
	defer dm.close()
	nd := dm.nodes[0]
	// Fault-free, every response lands in the same epoch; settle one
	// ask early, as a faster responder would, so a partial set is held.
	var early []Partial
	for _, c := range nd.pt.pendingCT {
		pd, err := partialOf(nd.pt.run.suite, 2, c)
		if err != nil {
			t.Fatal(err)
		}
		early = append(early, pd)
	}
	at, _ := slices.BinarySearchFunc(nd.pt.partials, 2, cmpPartials)
	nd.pt.partials = slices.Insert(nd.pt.partials, at, early)
	snap, err = nd.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wiretest.Check(t, "snapshot_decrypt", snap)
	if restored, err = RestoreNode(data, params, 0, snap); err != nil {
		t.Fatal(err)
	}
	again, err = restored.Snapshot()
	restored.Close()
	if err != nil {
		t.Fatal(err)
	}
	wiretest.Check(t, "snapshot_decrypt", again)

	g, req, resp := midGossipPayloads(t, m)
	for name, raw := range map[string][]byte{"payload_gossip": g, "payload_decrypt_request": req, "payload_decrypt_response": resp} {
		wiretest.Check(t, name, raw)
		pl, err := m.nodes[1].DecodePayload(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := m.nodes[1].EncodePayload(pl)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wiretest.Check(t, name, back)
	}
}

// FuzzDecodePayload hardens the decoder every daemon runs on bytes from
// its peers: arbitrary input must produce an error, never a panic, and
// anything accepted must re-encode to exactly the bytes it came from.
func FuzzDecodePayload(f *testing.F) {
	m := midGossipNode(f)
	defer m.close()
	g, req, resp := midGossipPayloads(f, m)
	for _, raw := range [][]byte{g, req, resp} {
		f.Add(raw)
		for _, cut := range []int{1, 2, len(raw) / 2, len(raw) - 1} {
			f.Add(raw[:cut])
		}
	}
	f.Add([]byte{})
	nd := m.nodes[1]
	f.Fuzz(func(t *testing.T, b []byte) {
		pl, err := nd.DecodePayload(b)
		if err != nil {
			return
		}
		again, err := nd.EncodePayload(pl)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if string(again) != string(b) {
			t.Fatal("accepted payload re-encodes to different bytes")
		}
	})
}
