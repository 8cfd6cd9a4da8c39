package core

import (
	"fmt"
	"math/big"
	"reflect"
	"testing"

	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/p2p"
)

// scriptedEnv is a minimal Env for driving participant decrypt methods
// directly: RandomPeer replays a scripted draw sequence and Send records
// deliveries.
type scriptedEnv struct {
	id    p2p.NodeID
	n     int
	peers []p2p.NodeID // scripted RandomPeer draws, in order
	next  int
	sent  []scriptedSend
}

type scriptedSend struct {
	to      p2p.NodeID
	payload any
	bytes   int
}

func (e *scriptedEnv) ID() p2p.NodeID      { return e.id }
func (e *scriptedEnv) Cycle() int          { return 0 }
func (e *scriptedEnv) PopulationSize() int { return e.n }
func (e *scriptedEnv) AliveCount() int     { return e.n }
func (e *scriptedEnv) Inbox() []p2p.Message {
	return nil
}
func (e *scriptedEnv) Send(to p2p.NodeID, payload any, bytes int) error {
	e.sent = append(e.sent, scriptedSend{to: to, payload: payload, bytes: bytes})
	return nil
}
func (e *scriptedEnv) RandomPeer() (p2p.NodeID, bool) {
	if e.next >= len(e.peers) {
		return -1, false
	}
	p := e.peers[e.next]
	e.next++
	return p, true
}

var _ Env = (*scriptedEnv)(nil)

func decryptTestParticipant(t *testing.T, n int) (*runSetup, *participant) {
	t.Helper()
	data := blobs(n, 2, 2)
	rs, err := prepareRun(data, Params{
		K: 2, Epsilon: 50, Iterations: 1, Seed: 1,
		GossipRounds: 4, DecryptThreshold: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.close)
	return rs, rs.newParticipant(0)
}

// TestTopUpAsksRedrawsPastAskedPeers is the satellite-1 regression: a
// draw landing on an already-asked peer must be redrawn, not silently
// dropped from the wave. The scripted sequence interleaves stale draws
// with fresh peers; the window must still reach `missing` asks.
func TestTopUpAsksRedrawsPastAskedPeers(t *testing.T) {
	_, pt := decryptTestParticipant(t, 12)
	pt.asked = []p2p.NodeID{1, 2}
	env := &scriptedEnv{id: 0, n: 12, peers: []p2p.NodeID{1, 2, 1, 3, 2, 2, 4, 5}}
	pt.topUpAsks(env, 2, 10)
	if len(env.sent) != 2 {
		t.Fatalf("sent %d asks, want 2 (stale draws must be redrawn)", len(env.sent))
	}
	if env.sent[0].to != 3 || env.sent[1].to != 4 {
		t.Fatalf("asked %v and %v, want the first two un-asked draws 3 and 4", env.sent[0].to, env.sent[1].to)
	}
	if want := []pendingAsk{{3, askTTL}, {4, askTTL}}; !reflect.DeepEqual(pt.outstanding, want) {
		t.Fatalf("outstanding = %v, want %v", pt.outstanding, want)
	}
	if want := []p2p.NodeID{1, 2, 3, 4}; !reflect.DeepEqual(pt.asked, want) {
		t.Fatalf("asked = %v, want %v: fresh asks must be recorded, in order", pt.asked, want)
	}
	if pt.decryptReqs != 2 || pt.decryptReqBytes != 20 {
		t.Fatalf("request accounting = (%d, %d), want (2, 20)", pt.decryptReqs, pt.decryptReqBytes)
	}
}

// TestTopUpAsksWindowDiscipline pins the window semantics: a full window
// sends nothing, TTLs age per activation, expired asks are re-provisioned
// to new peers, and a slow quorum escalates the target by one.
func TestTopUpAsksWindowDiscipline(t *testing.T) {
	_, pt := decryptTestParticipant(t, 12)

	// First activation fills the window.
	env := &scriptedEnv{id: 0, n: 12, peers: []p2p.NodeID{3, 4, 5, 6, 7, 8, 9, 10, 11}}
	pt.topUpAsks(env, 2, 10)
	if len(env.sent) != 2 {
		t.Fatalf("initial fill sent %d, want 2", len(env.sent))
	}
	// Second and third activations: window full, only TTL aging.
	pt.topUpAsks(env, 2, 10)
	if len(env.sent) != 2 {
		t.Fatalf("full window must not send; sent %d", len(env.sent))
	}
	if want := []pendingAsk{{3, askTTL - 1}, {4, askTTL - 1}}; !reflect.DeepEqual(pt.outstanding, want) {
		t.Fatalf("TTLs not aged: %v", pt.outstanding)
	}
	pt.topUpAsks(env, 2, 10)
	// Fourth activation: both initial asks expire and are re-provisioned.
	pt.topUpAsks(env, 2, 10)
	if len(env.sent) != 4 {
		t.Fatalf("expired asks must be re-provisioned; sent %d, want 4", len(env.sent))
	}
	if want := []pendingAsk{{5, askTTL}, {6, askTTL}}; !reflect.DeepEqual(pt.outstanding, want) {
		t.Fatalf("outstanding = %v, want only the re-provisioned asks %v", pt.outstanding, want)
	}
	if want := []p2p.NodeID{5, 6}; !reflect.DeepEqual(pt.asked, want) {
		t.Fatalf("asked = %v, want %v: expired peers are released", pt.asked, want)
	}

	// Escalation: with waitCycles at the TTL, the target is missing+1.
	pt2 := pt
	pt2.outstanding = nil
	pt2.asked = nil
	pt2.waitCycles = askTTL
	env2 := &scriptedEnv{id: 0, n: 12, peers: []p2p.NodeID{1, 2, 3, 4, 5}}
	pt2.topUpAsks(env2, 2, 10)
	if len(env2.sent) != 3 {
		t.Fatalf("slow quorum must over-provision by one; sent %d, want 3", len(env2.sent))
	}

	// Pool exhaustion terminates cleanly: every scripted draw is already
	// asked, so nothing is sent and the loop ends with the pool.
	env3 := &scriptedEnv{id: 0, n: 12, peers: []p2p.NodeID{1, 1, 1}}
	pt2.topUpAsks(env3, 5, 10)
	if got := len(env3.sent); got != 0 {
		t.Fatalf("exhausted pool still sent %d asks", got)
	}
}

// TestServeDecryptMemoizesPartials is the satellite-3 property: replays
// of the same (iteration, cipher-set) request are served from the memo
// without recomputing the per-cipher partial decryptions, and anything
// else misses.
func TestServeDecryptMemoizesPartials(t *testing.T) {
	rs, pt := decryptTestParticipant(t, 12)
	c1, err := rs.suite.Encrypt(big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := rs.suite.Encrypt(big.NewInt(9))
	if err != nil {
		t.Fatal(err)
	}
	env := &scriptedEnv{id: 0, n: 12}
	req := &decryptRequest{Iter: 0, Ciphers: []Cipher{c1, c2}}

	pt.serveDecrypt(env, 7, req)
	if pt.servedHits != 0 {
		t.Fatalf("first request hit the memo (%d hits)", pt.servedHits)
	}
	pt.serveDecrypt(env, 8, req) // replay: same iteration, same cipher slice
	if pt.servedHits != 1 {
		t.Fatalf("replay missed the memo (%d hits)", pt.servedHits)
	}
	r1 := env.sent[0].payload.(*decryptResponse)
	r2 := env.sent[1].payload.(*decryptResponse)
	if &r1.Partials[0] != &r2.Partials[0] {
		t.Fatal("memo hit must reuse the cached partials")
	}
	if !reflect.DeepEqual(r1.Partials, r2.Partials) {
		t.Fatal("cached partials differ from the originals")
	}

	// A different cipher slice (even with equal contents) misses: the memo
	// key is the slice identity, the only cheap guarantee the partials
	// belong to exactly these ciphertexts.
	other := &decryptRequest{Iter: 0, Ciphers: []Cipher{c1, c2}}
	pt.serveDecrypt(env, 9, other)
	if pt.servedHits != 1 {
		t.Fatalf("different slice must miss (%d hits)", pt.servedHits)
	}
	// A different iteration over the same slice misses too.
	stale := &decryptRequest{Iter: 1, Ciphers: other.Ciphers}
	pt.serveDecrypt(env, 9, stale)
	if pt.servedHits != 1 {
		t.Fatalf("different iteration must miss (%d hits)", pt.servedHits)
	}
	if pt.decryptRespBytes == 0 {
		t.Fatal("response bytes not accounted")
	}
}

// TestPostedAsksOwnTheirReplies pins the hot path's decrypt buffers: a
// posted ask is answered in the requester's own reply storage without
// allocating, the reply partials are the requester's pending residues,
// growing the slot array never moves a posted slot, and the next
// iteration reuses the slots from the start.
func TestPostedAsksOwnTheirReplies(t *testing.T) {
	rs, pt := decryptTestParticipant(t, 12)
	r := rs.shared
	if r.mut == nil {
		t.Fatal("accounted fault-free run must take the hot path")
	}
	pending, err := r.mut.NewScratchVector(r.sideCiphers)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range pending {
		if err := r.mut.EncryptInto(c, big.NewInt(int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	pt.pendingCT = pending
	threshold := r.suite.Threshold()
	var reqs []*decryptRequest
	for i := 0; i < threshold; i++ {
		reqs = append(reqs, pt.askRequest())
	}
	first := &pt.asks[0]
	grown := pt.askRequest() // one past the initial slots: the array grows
	if &pt.asks[0] == first || grown != &pt.asks[threshold].req {
		t.Fatal("growth must hand out a slot of the new array")
	}
	if reqs[0] != &first.req || reqs[0].reply != &first.resp {
		t.Fatal("a posted slot moved when the slot array grew")
	}

	responder := rs.newParticipant(3)
	env := &scriptedEnv{id: 3, n: 12, sent: make([]scriptedSend, 0, 1)}
	for _, hit := range []bool{false, true} {
		if allocs := testing.AllocsPerRun(20, func() {
			env.sent = env.sent[:0]
			if !hit {
				responder.servedCiphers = nil // forget the memo: compute
			}
			responder.serveDecrypt(env, 0, reqs[2])
		}); allocs != 0 {
			t.Fatalf("serving a posted ask (memo hit %v) allocates %.1f objects, want 0", hit, allocs)
		}
	}
	if responder.servedHits == 0 {
		t.Fatal("repeated requests must hit the memo")
	}
	resp := env.sent[0].payload.(*decryptResponse)
	if resp != reqs[2].reply {
		t.Fatal("the reply must be the requester's posted response")
	}
	for i, p := range resp.Partials {
		if p.Index != 4 || p.Value != pending[i].(plainCipher).v {
			t.Fatalf("reply partial %d = %+v, want share 4 over the pending residue", i, p)
		}
	}

	pt.clearDecrypt()
	if got := pt.askRequest(); got != &pt.asks[0].req {
		t.Fatal("the next iteration must reuse the slots from the start")
	}
}

// TestResetRenewsPendingVector: a participant that restarts an
// iteration after a reset (churn rejoin) recomputes its perturbed
// ciphertexts, and a responder that served the abandoned attempt must
// not answer the new request from its memo — on the hot path that
// means a fresh pending vector, not the reused one.
func TestResetRenewsPendingVector(t *testing.T) {
	rs, pt := decryptTestParticipant(t, 12)
	r := rs.shared
	vals, err := r.mut.NewScratchVector(2 * r.sideCiphers)
	if err != nil {
		t.Fatal(err)
	}
	st, err := gossip.NewState[Cipher](r.ring, vals, 1)
	if err != nil {
		t.Fatal(err)
	}
	st.SetMutable()
	responder := rs.newParticipant(3)
	env := &scriptedEnv{id: 3, n: 12}
	for attempt := 0; attempt < 2; attempt++ {
		pt.Reset()
		pt.diptych.Means = st
		pt.phase = phaseDecrypt
		pt.pendingCT = pt.perturbMeans()
		responder.serveDecrypt(env, 0, pt.askRequest())
	}
	if responder.servedHits != 0 {
		t.Fatal("the restarted iteration's request was answered from the memo of the abandoned attempt")
	}
}

// TestHotPathMatchesClassicPath runs the same cycle-driven simulation on
// the in-place hot path and, with the suite's in-place extension
// withheld, on the classic allocating path, and requires identical
// traces — disclosures, every operation count (memo hits included),
// decrypt traffic, drops and failures. Under churn with resets,
// late synchronization and quorum escalation, this is the end-to-end
// check that the reused gossip and decrypt buffers never alias data
// still in flight.
func TestHotPathMatchesClassicPath(t *testing.T) {
	data := blobs(60, 3, 2)
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"fault-free", Params{K: 2, Epsilon: 100, Iterations: 3, Seed: 4, GossipRounds: 6, DecryptThreshold: 5}},
		{"churn with resets", Params{K: 2, Epsilon: 100, Iterations: 4, Seed: 5, GossipRounds: 4, DecryptThreshold: 9,
			ChurnCrashProb: 0.05, ChurnRejoinProb: 0.4, ChurnResetOnRejoin: true}},
		{"churn, one gossip round", Params{K: 2, Epsilon: 100, Iterations: 4, Seed: 6, GossipRounds: 1, DecryptThreshold: 7,
			ChurnCrashProb: 0.05, ChurnRejoinProb: 0.5}},
	} {
		run := func(hot bool) *Trace {
			rs, err := prepareRun(data, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			defer rs.close()
			if rs.shared.mut == nil {
				t.Fatalf("%s: the run must qualify for the hot path", tc.name)
			}
			if !hot {
				rs.shared.mut = nil
			}
			d, err := newCycleDriver(data, rs, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := d.run()
			if err != nil {
				t.Fatal(err)
			}
			tr.Phases = PhaseProfile{} // wall-clock times differ by nature
			return tr
		}
		hot, classic := run(true), run(false)
		// Printed, so the NaN of an untracked inertia compares equal.
		if fmt.Sprintf("%+v", *hot) != fmt.Sprintf("%+v", *classic) {
			t.Errorf("%s: hot path trace differs from the classic path:\nops %+v vs %+v\nrequests %d vs %d, drops %d vs %d, failures %d vs %d",
				tc.name, hot.Ops, classic.Ops, hot.DecryptRequests, classic.DecryptRequests,
				hot.StaleDrops, classic.StaleDrops, hot.DecryptFailures, classic.DecryptFailures)
		}
		if tc.p.ChurnCrashProb > 0 && hot.NetStats.Rejoins == 0 {
			t.Errorf("%s: no rejoin happened; the case does not exercise churn", tc.name)
		}
	}
}

// legacyChurnFailures is the decrypt-failure total the pre-window ask
// discipline (threshold+1 fresh peers every waiting cycle, drawn
// without replacement) reported over TestDecryptChurnSmallPopulation's
// ten seeds, recorded on the sequential engine before that discipline
// was deleted.
const legacyChurnFailures = 35

// TestDecryptChurnSmallPopulation is the satellite-1 end-to-end
// regression. The scenario is chosen where the old discipline's silent
// wave shrinkage bites hardest: the quorum needs nearly the whole small
// pool (9 of 11 peers) under crash/rejoin churn, so the legacy path
// exhausted `asked` in its first waves and — unable to ever re-ask a
// crashed-then-rejoined peer — burned the rest of the window drawing
// already-asked peers. The window's redraws and expiry-release re-asks
// must assemble quorums strictly more reliably here than the recorded
// legacy total.
func TestDecryptChurnSmallPopulation(t *testing.T) {
	data := blobs(12, 2, 2)
	windowed := 0
	for seed := int64(0); seed < 10; seed++ {
		p := Params{
			K: 2, Epsilon: 50, Iterations: 3, Seed: seed,
			GossipRounds: 5, DecryptThreshold: 9, DecryptWindow: 14,
			ChurnCrashProb: 0.08, ChurnRejoinProb: 0.5,
		}
		tr, err := Run(data, p)
		if err != nil {
			windowed += 3 // an aborted run failed every iteration
			continue
		}
		windowed += tr.DecryptFailures
	}
	t.Logf("decrypt failures across 10 churn seeds: legacy=%d (recorded) windowed=%d", legacyChurnFailures, windowed)
	if windowed >= legacyChurnFailures {
		t.Fatalf("windowed asks must out-assemble legacy in the near-full-quorum churn scenario: windowed=%d, legacy=%d", windowed, legacyChurnFailures)
	}
}

// TestDecryptDeterministicResponderOrder is the satellite-2 regression:
// two identical runs on the real backend must produce bit-identical
// traces AND identical operation counts — the map-ordered combine input
// this pins down used to leak nondeterminism into the responder-set
// cache profile even when the decrypted values agreed.
func TestDecryptDeterministicResponderOrder(t *testing.T) {
	data := blobs(16, 2, 2)
	// DecryptThreshold n-1 makes every participant's responder set
	// all-shares-but-its-own, so iteration 2 must hit the responder-set
	// cache (same subset, same run-level key).
	p := Params{
		K: 2, Epsilon: 50, Iterations: 2, Seed: 7,
		GossipRounds: 5, DecryptThreshold: len(data) - 1,
		Backend: BackendDamgardJurik, ModulusBits: 256,
	}
	run := func() *Trace {
		tr, err := Run(data, p)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.FinalCentroids, b.FinalCentroids) {
		t.Fatal("final centroids differ between identical runs")
	}
	if a.Ops != b.Ops {
		t.Fatalf("operation counts differ between identical runs:\n  %+v\n  %+v", a.Ops, b.Ops)
	}
	if a.DecryptRequests != b.DecryptRequests || a.DecryptBytes != b.DecryptBytes {
		t.Fatal("decrypt accounting differs between identical runs")
	}
	if a.Ops.CombineCtxHits == 0 {
		t.Fatal("no combine-context cache hits in a multi-cipher decrypt run")
	}
}

// decryptRow is one TestDecryptWindowStressTable measurement.
type decryptRow struct {
	threshold int
	cycles    int
	requests  int
	bytes     int64
	fails     int
}

// legacyStressRows are the pre-window ask discipline's rows of
// TestDecryptWindowStressTable, recorded on the sequential engine before
// that discipline was deleted.
var legacyStressRows = []decryptRow{
	{threshold: 3, cycles: 18, requests: 358, bytes: 1105504, fails: 0},
	{threshold: 23, cycles: 18, requests: 1104, bytes: 3409152, fails: 0},
}

// TestDecryptWindowStressTable is the satellite-4 A/B: quorum assembly
// across the DecryptThreshold edges (tiny quorum, and quorum == n-1 where
// every peer must answer), windowed asks against the recorded legacy
// rows, fault-free. The windowed path must never complete later and
// never send more decrypt bytes or requests.
func TestDecryptWindowStressTable(t *testing.T) {
	data := blobs(24, 2, 2)
	t.Log("threshold  discipline  cycles  requests  decryptBytes  fails")
	for _, legacy := range legacyStressRows {
		p := Params{
			K: 2, Epsilon: 50, Iterations: 2, Seed: 3,
			GossipRounds: 5, DecryptThreshold: legacy.threshold, DecryptWindow: 12,
		}
		tr, err := Run(data, p)
		if err != nil {
			t.Fatalf("threshold=%d: %v", legacy.threshold, err)
		}
		windowed := decryptRow{legacy.threshold, tr.CyclesRun, tr.DecryptRequests, tr.DecryptBytes, tr.DecryptFailures}
		logRow := func(name string, r decryptRow) {
			t.Logf("%9d  %-10s  %6d  %8d  %12d  %5d", r.threshold, name, r.cycles, r.requests, r.bytes, r.fails)
		}
		logRow("legacy", legacy)
		logRow("windowed", windowed)
		if windowed.fails != 0 {
			t.Fatalf("fault-free run reported decrypt failures: %+v", windowed)
		}
		if windowed.cycles > legacy.cycles {
			t.Errorf("threshold=%d: windowed completes later (%d > %d cycles)", windowed.threshold, windowed.cycles, legacy.cycles)
		}
		if windowed.bytes > legacy.bytes {
			t.Errorf("threshold=%d: windowed sends more decrypt bytes (%d > %d)", windowed.threshold, windowed.bytes, legacy.bytes)
		}
		if windowed.requests > legacy.requests {
			t.Errorf("threshold=%d: windowed sends more requests (%d > %d)", windowed.threshold, windowed.requests, legacy.requests)
		}
	}
}

// TestDecryptPhaseAccounting pins the new trace fields: a fault-free run
// classifies cycles into every phase, and the decrypt wire accounting is
// non-zero and consistent with the network totals.
func TestDecryptPhaseAccounting(t *testing.T) {
	data := blobs(24, 2, 2)
	tr, err := Run(data, Params{K: 2, Epsilon: 50, Iterations: 2, Seed: 5, GossipRounds: 5, DecryptThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	ph := tr.Phases
	if ph.AssignCycles == 0 || ph.GossipCycles == 0 || ph.DecryptCycles == 0 {
		t.Fatalf("phase profile missing cycles: %+v", ph)
	}
	if got := ph.AssignCycles + ph.GossipCycles + ph.DecryptCycles; got != tr.CyclesRun {
		t.Fatalf("phase cycles sum to %d, run had %d", got, tr.CyclesRun)
	}
	if tr.DecryptRequests == 0 || tr.DecryptBytes == 0 {
		t.Fatalf("decrypt accounting empty: %d requests, %d bytes", tr.DecryptRequests, tr.DecryptBytes)
	}
	if tr.DecryptBytes >= tr.NetStats.BytesSent {
		t.Fatalf("decrypt bytes (%d) exceed total wire bytes (%d)", tr.DecryptBytes, tr.NetStats.BytesSent)
	}
}
