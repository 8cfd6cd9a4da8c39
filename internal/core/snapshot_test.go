package core

import (
	"bytes"
	"slices"
	"testing"

	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/wire"
)

// snapshot_test.go drives networked Nodes through an in-memory mesh —
// the transport's epoch clock without the TCP — and checks that a node
// snapshotted mid-run and restored into a fresh process image continues
// the run bit-identically. The mini-mesh routes every payload through
// EncodePayload/DecodePayload, so a snapshot round-trip is exercised
// against exactly the state a real daemon would have.

// memMesh steps a full population of Nodes under the simulator's
// message-visibility contract: payloads sent at epoch e are delivered
// at e+1, inboxes ordered by ascending sender id with per-sender FIFO.
type memMesh struct {
	nodes    []*Node
	samplers []*p2p.Sampler
	// pending[to][from] is the FIFO of encoded payloads sent this epoch.
	pending []map[int][][]byte
}

func newMemMesh(t testing.TB, data [][]float64, params Params) *memMesh {
	t.Helper()
	m := &memMesh{
		nodes:    make([]*Node, len(data)),
		samplers: make([]*p2p.Sampler, len(data)),
		pending:  make([]map[int][][]byte, len(data)),
	}
	for id := range data {
		nd, err := NewNode(data, params, id)
		if err != nil {
			t.Fatalf("NewNode(%d): %v", id, err)
		}
		m.nodes[id] = nd
		m.samplers[id] = p2p.NewSampler(nd.SamplingSeed(), p2p.NodeID(id), len(data))
		m.pending[id] = map[int][][]byte{}
	}
	return m
}

func (m *memMesh) close() {
	for _, nd := range m.nodes {
		if nd != nil {
			nd.Close()
		}
	}
}

type memEnv struct {
	m     *memMesh
	id    int
	epoch int
	inbox []p2p.Message
	next  []map[int][][]byte
	t     testing.TB
}

func (e *memEnv) ID() p2p.NodeID       { return p2p.NodeID(e.id) }
func (e *memEnv) Cycle() int           { return e.epoch }
func (e *memEnv) PopulationSize() int  { return len(e.m.nodes) }
func (e *memEnv) AliveCount() int      { return len(e.m.nodes) }
func (e *memEnv) Inbox() []p2p.Message { return e.inbox }
func (e *memEnv) RandomPeer() (p2p.NodeID, bool) {
	return e.m.samplers[e.id].RandomPeer()
}
func (e *memEnv) Send(to p2p.NodeID, payload any, bytes int) error {
	raw, err := e.m.nodes[e.id].EncodePayload(payload)
	if err != nil {
		e.t.Fatalf("node %d encode at epoch %d: %v", e.id, e.epoch, err)
	}
	e.next[int(to)][e.id] = append(e.next[int(to)][e.id], raw)
	return nil
}

// stepEpoch advances the whole mesh one epoch, returning whether every
// node is done.
func (m *memMesh) stepEpoch(t testing.TB, epoch int) bool {
	t.Helper()
	next := make([]map[int][][]byte, len(m.nodes))
	for id := range next {
		next[id] = map[int][][]byte{}
	}
	allDone := true
	for id, nd := range m.nodes {
		var inbox []p2p.Message
		for from := 0; from < len(m.nodes); from++ {
			for _, raw := range m.pending[id][from] {
				payload, err := nd.DecodePayload(raw)
				if err != nil {
					t.Fatalf("node %d decode from %d at epoch %d: %v", id, from, epoch, err)
				}
				inbox = append(inbox, p2p.Message{From: p2p.NodeID(from), Payload: payload, Bytes: len(raw)})
			}
		}
		env := &memEnv{m: m, id: id, epoch: epoch, inbox: inbox, next: next, t: t}
		nd.Step(env)
		if !nd.Done() {
			allDone = false
		}
	}
	m.pending = next
	return allDone
}

// run steps until the whole population terminates.
func (m *memMesh) run(t *testing.T, from int) {
	t.Helper()
	limit := m.nodes[0].MaxCycles()
	for epoch := from; epoch < limit; epoch++ {
		if m.stepEpoch(t, epoch) {
			return
		}
	}
	t.Fatalf("mesh did not terminate within %d epochs", limit)
}

func requireEqualHistories(t *testing.T, got, want [][]IterationResult, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d histories, want %d", label, len(got), len(want))
	}
	for id := range want {
		if len(got[id]) != len(want[id]) {
			t.Fatalf("%s: node %d disclosed %d iterations, want %d", label, id, len(got[id]), len(want[id]))
		}
		for i := range want[id] {
			g, w := got[id][i], want[id][i]
			if g.Iteration != w.Iteration || g.Assignment != w.Assignment ||
				g.DecryptFailed != w.DecryptFailed || g.CompletedAtCycle != w.CompletedAtCycle ||
				g.Epsilon != w.Epsilon || g.Displacement != w.Displacement {
				t.Fatalf("%s: node %d iteration %d diverges: %+v vs %+v", label, id, i, g, w)
			}
			for j := range w.PerturbedCentroids {
				for d := range w.PerturbedCentroids[j] {
					if g.PerturbedCentroids[j][d] != w.PerturbedCentroids[j][d] {
						t.Fatalf("%s: node %d iteration %d centroid [%d][%d] diverges", label, id, i, j, d)
					}
				}
			}
		}
	}
}

func (m *memMesh) histories() [][]IterationResult {
	out := make([][]IterationResult, len(m.nodes))
	for id, nd := range m.nodes {
		out[id] = nd.History()
	}
	return out
}

func snapshotTestConfig() ([][]float64, Params) {
	data := blobs(4, 6, 2)
	params := Params{K: 2, Epsilon: 1.0, Iterations: 2, Seed: 99, Backend: BackendPlainAccounted}
	return data, params
}

// TestMemMeshMatchesSequential sanity-checks the mini-mesh itself: its
// epoch clock must reproduce the sequential engine's trajectories, or
// the snapshot tests below would be comparing against a broken oracle.
func TestMemMeshMatchesSequential(t *testing.T) {
	data, params := snapshotTestConfig()
	_, want, err := RunSequentialHistories(data, params)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	m := newMemMesh(t, data, params)
	defer m.close()
	m.run(t, 0)
	requireEqualHistories(t, m.histories(), want, "mem mesh")
}

// TestSnapshotRestoreMidRun is the core crash-recovery property: at
// every epoch of the run, snapshotting EVERY node, restoring each into
// a brand-new Node (fresh suite, fresh participant) and continuing must
// disclose trajectories bit-identical to the uninterrupted reference.
// Cycling the interruption point across all epochs covers every phase
// of the protocol state machine (assign, gossip, decrypt, done).
func TestSnapshotRestoreMidRun(t *testing.T) {
	data, params := snapshotTestConfig()
	_, want, err := RunSequentialHistories(data, params)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	// Measure the uninterrupted run length first.
	probe := newMemMesh(t, data, params)
	epochs := 0
	for !probe.stepEpoch(t, epochs) {
		epochs++
	}
	probe.close()
	if epochs < 3 {
		t.Fatalf("run too short (%d epochs) to exercise mid-run snapshots", epochs)
	}

	for cut := 1; cut <= epochs; cut++ {
		m := newMemMesh(t, data, params)
		for e := 0; e < cut; e++ {
			m.stepEpoch(t, e)
		}
		// Crash the whole population: serialize, discard, restore.
		for id, nd := range m.nodes {
			snap, err := nd.Snapshot()
			if err != nil {
				t.Fatalf("cut %d: snapshot node %d: %v", cut, id, err)
			}
			nd.Close()
			restored, err := RestoreNode(data, params, id, snap)
			if err != nil {
				t.Fatalf("cut %d: restore node %d: %v", cut, id, err)
			}
			m.nodes[id] = restored
			// The peer sampler is checkpointed alongside in the real
			// daemon; mirror that here.
			st := m.samplers[id].State()
			m.samplers[id] = p2p.NewSampler(restored.SamplingSeed(), p2p.NodeID(id), len(data))
			m.samplers[id].SetState(st)
		}
		m.run(t, cut)
		requireEqualHistories(t, m.histories(), want, "restored mesh")
		m.close()
	}
}

// TestSnapshotRejectsMismatch pins the guard rails: a snapshot must not
// restore into the wrong node id or a different run configuration.
func TestSnapshotRejectsMismatch(t *testing.T) {
	data, params := snapshotTestConfig()
	nd, err := NewNode(data, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	snap, err := nd.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreNode(data, params, 2, snap); err == nil {
		t.Fatal("restore accepted a snapshot belonging to another node")
	}
	other := params
	other.Seed++
	if _, err := RestoreNode(data, other, 1, snap); err == nil {
		t.Fatal("restore accepted a snapshot from a different run configuration")
	}
	for _, cut := range []int{0, 1, 4, 8, len(snap) - 1} {
		if cut >= len(snap) {
			continue
		}
		if _, err := RestoreNode(data, params, 1, snap[:cut]); err == nil {
			t.Fatalf("restore accepted a snapshot truncated to %d bytes", cut)
		}
	}
	mut := bytes.Clone(snap)
	mut[len(mut)-1] ^= 0xFF
	if _, err := RestoreNode(data, params, 1, mut); err == nil {
		t.Fatal("restore accepted a corrupted snapshot")
	}
}

// midGossipNode steps a mem mesh of the snapshot configuration until
// node 0 holds a push-sum state that has emitted (exponent > 0) and
// returns the mesh.
func midGossipNode(t testing.TB) *memMesh {
	data, params := snapshotTestConfig()
	m := newMemMesh(t, data, params)
	for e := 0; e < m.nodes[0].MaxCycles(); e++ {
		m.stepEpoch(t, e)
		if st := m.nodes[0].pt.diptych.Means; st != nil && st.Exp > 0 && m.nodes[0].pt.phase == phaseGossip {
			return m
		}
	}
	t.Fatal("node 0 never reached a mid-gossip state")
	return nil
}

// decryptPhaseNode steps a mem mesh of the snapshot configuration
// until node 0 is in the decrypt phase of the second iteration with
// asks in flight — so it holds pending ciphertexts, an asked set, an
// outstanding window and one disclosed history entry — and returns the
// mesh.
func decryptPhaseNode(t testing.TB) *memMesh {
	data, params := snapshotTestConfig()
	m := newMemMesh(t, data, params)
	nd := m.nodes[0]
	for e := 0; e < nd.MaxCycles(); e++ {
		m.stepEpoch(t, e)
		if nd.pt.phase == phaseDecrypt && nd.pt.iter == 1 && len(nd.pt.outstanding) > 0 {
			return m
		}
	}
	t.Fatal("node 0 never reached a decrypt-phase state with asks in flight")
	return nil
}

// TestRestoreRejectsImpossibleHistory: restore validates the disclosed
// history and the asked set against what the run could have produced.
// Each snapshot below is well-formed field by field, but records a
// history entry outside the schedule, one not strictly after its
// predecessor, one drawn at an epsilon other than its iteration's
// scheduled one, or a peer asked twice.
func TestRestoreRejectsImpossibleHistory(t *testing.T) {
	data, params := snapshotTestConfig()
	m := decryptPhaseNode(t)
	defer m.close()
	nd := m.nodes[0]
	p := nd.pt
	if len(p.history) != 1 {
		t.Fatalf("decrypt-phase node has %d history entries, want 1", len(p.history))
	}
	orig := p.history[0]
	restores := func() bool {
		t.Helper()
		snap, err := nd.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreNode(data, params, 0, snap)
		if err != nil {
			return false
		}
		restored.Close()
		return true
	}
	if !restores() {
		t.Fatal("the untouched decrypt-phase snapshot does not restore")
	}
	for _, tc := range []struct {
		name    string
		history func() []IterationResult
	}{
		{"iteration outside the schedule", func() []IterationResult {
			h := orig
			h.Iteration = 5000
			return []IterationResult{h}
		}},
		{"epsilon off the schedule", func() []IterationResult {
			h := orig
			h.Epsilon = 1e9
			return []IterationResult{h}
		}},
		{"repeated iteration", func() []IterationResult { return []IterationResult{orig, orig} }},
		{"descending iterations", func() []IterationResult {
			h := orig
			h.Iteration, h.Epsilon = 1, p.run.epsSched[1]
			return []IterationResult{h, orig}
		}},
	} {
		p.history = tc.history()
		if restores() {
			t.Errorf("%s: restore accepted it", tc.name)
		}
	}
	p.history = []IterationResult{orig}

	// A duplicate asked id cannot come from the sorted set, so it is
	// spliced into the encoding: the asked block [n, a, b, ...] becomes
	// [n, a, a, ...]. The outstanding window is cleared first so only
	// the duplicate is at fault.
	p.outstanding = nil
	snap, err := nd.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	asked := p.asked
	if len(asked) < 2 {
		t.Fatalf("decrypt-phase node asked %d peers, want at least 2", len(asked))
	}
	block := wire.AppendU32(nil, uint32(len(asked)))
	for _, id := range asked {
		block = wire.AppendU32(block, uint32(id))
	}
	at := bytes.Index(snap, block)
	if at < 0 || bytes.Index(snap[at+1:], block) >= 0 {
		t.Fatal("asked block not found exactly once in the snapshot")
	}
	dup := wire.AppendU32(slices.Clone(block[:16]), uint32(asked[0]))
	dup = append(dup, block[24:]...)
	snap = slices.Concat(snap[:at], dup, snap[at+len(block):])
	if restored, err := RestoreNode(data, params, 0, snap); err == nil {
		restored.Close()
		t.Fatalf("restore accepted asked ids %v with %d listed twice", asked, asked[0])
	}
}

// lastExpInBudget is the largest exponent dyadicInBudget accepts at
// weight w.
func lastExpInBudget(t testing.TB, r *runShared, w float64) int {
	t.Helper()
	if !r.dyadicInBudget(w, 0) {
		t.Fatalf("weight %g out of budget at exponent 0", w)
	}
	e := 0
	for r.dyadicInBudget(w, e+1) {
		e++
	}
	return e
}

// TestSnapshotRejectsImplausibleExponent: the push-sum exponent
// round-trips through a snapshot, and restore applies the same headroom
// test as the wire: a state at the last in-budget exponent for its
// weight restores and its next emit decodes at a peer, one exponent
// more is refused.
func TestSnapshotRejectsImplausibleExponent(t *testing.T) {
	data, params := snapshotTestConfig()
	m := midGossipNode(t)
	defer m.close()
	nd := m.nodes[0]
	snap, err := nd.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreNode(data, params, 0, snap)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.pt.diptych.Means.Exp, nd.pt.diptych.Means.Exp; got != want {
		t.Fatalf("restored exponent %d, want %d", got, want)
	}
	restored.Close()

	st := nd.pt.diptych.Means
	r := nd.pt.run
	last := lastExpInBudget(t, r, st.Weight())
	if last <= r.expBudget {
		t.Fatalf("weight %g: last in-budget exponent %d not above the budget %d", st.Weight(), last, r.expBudget)
	}
	st.Exp = last
	edge, err := nd.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err = RestoreNode(data, params, 0, edge)
	if err != nil {
		t.Fatalf("exponent %d at weight %g: %v", last, st.Weight(), err)
	}
	msg := restored.pt.diptych.Means.Emit()
	raw, err := restored.EncodePayload(&gossipPayload{Iter: restored.pt.iter, Centroids: restored.pt.diptych.Centroids, Msg: msg})
	restored.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.nodes[1].DecodePayload(raw); err != nil {
		t.Fatalf("the emit of a restorable state was refused on the wire: %v", err)
	}

	st.Exp = last + 1
	bad, err := nd.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreNode(data, params, 0, bad); err == nil {
		t.Fatalf("restore accepted exponent %d at weight %g, beyond the headroom budget", last+1, st.Weight())
	}
}

// TestDecodePayloadExponentBudget: the gossip payload carries the
// push-sum exponent, and DecodePayload rejects a weight and exponent
// beyond the headroom budget (dyadicInBudget) the way it rejects an
// implausible weight.
func TestDecodePayloadExponentBudget(t *testing.T) {
	m := midGossipNode(t)
	defer m.close()
	nd := m.nodes[0]
	msg := nd.pt.diptych.Means.Emit()
	last := lastExpInBudget(t, nd.pt.run, msg.W)
	for _, exp := range []int{0, last, last + 1} {
		msg.Exp = exp
		raw, err := nd.EncodePayload(&gossipPayload{Iter: nd.pt.iter, Centroids: nd.pt.diptych.Centroids, Msg: msg})
		if err != nil {
			t.Fatal(err)
		}
		pl, err := m.nodes[1].DecodePayload(raw)
		if exp > last {
			if err == nil {
				t.Fatalf("weight %g at exponent %d beyond the budget accepted", msg.W, exp)
			}
			continue
		}
		if err != nil {
			t.Fatalf("exponent %d: %v", exp, err)
		}
		if got := pl.(*gossipPayload).Msg.Exp; got != exp {
			t.Fatalf("exponent %d decoded as %d", exp, got)
		}
	}
}

// FuzzRestoreNode hardens the snapshot decoder the way the wire
// decoders are hardened: arbitrary bytes must produce an error, never a
// panic or a silently half-restored node.
func FuzzRestoreNode(f *testing.F) {
	data, params := snapshotTestConfig()
	nd, err := NewNode(data, params, 0)
	if err != nil {
		f.Fatal(err)
	}
	snap, err := nd.Snapshot()
	nd.Close()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	f.Add([]byte{})
	// Mid-gossip snapshots carry a push-sum state with its exponent: one
	// as taken, one with the exponent pushed past what restore accepts.
	m := midGossipNode(f)
	defer m.close()
	mid := m.nodes[0]
	if snap, err = mid.Snapshot(); err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	mid.pt.diptych.Means.Exp = 1 << 20
	if snap, err = mid.Snapshot(); err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Fuzz(func(t *testing.T, b []byte) {
		if nd, err := RestoreNode(data, params, 0, b); err == nil {
			nd.Close()
		}
	})
}
