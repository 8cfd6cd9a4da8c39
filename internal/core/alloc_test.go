package core

import (
	"runtime"
	"testing"

	"chiaroscuro/internal/benchcfg"
	"chiaroscuro/internal/compactrng"
	"chiaroscuro/internal/datasets"
	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/simnet"
)

// allocTestParams is a configuration whose first iteration holds every
// participant in the gossip phase long enough to warm all amortized
// buffers and then measure pure steady-state cycles.
func allocTestParams(rounds int) Params {
	return Params{
		K: 2, Epsilon: 50, Iterations: 1, Seed: 11,
		GossipRounds: rounds, DecryptThreshold: 3,
	}
}

func allocTestData(t testing.TB, n int) [][]float64 {
	t.Helper()
	d, err := datasets.CER(datasets.CEROptions{N: n, Dim: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range d.Series {
		for i, v := range s {
			s[i] = v / 8 // generator kW values into [0,1]
			if s[i] > 1 {
				s[i] = 1
			}
		}
	}
	return d.Series
}

// TestGossipCycleZeroAlloc is the ISSUE 5 acceptance gate: on the
// accounted backend, a warmed steady-state gossip cycle — all
// participants' halve-and-emit plus batched absorbs, across the whole
// simulated network — performs zero heap allocations, proven with
// testing.AllocsPerRun. The run is deterministic (fixed seed), so the
// buffer capacities the warm-up grows are the ones the measured window
// needs.
func TestGossipCycleZeroAlloc(t *testing.T) {
	const n, warm, measure = 48, 40, 40
	data := allocTestData(t, n)
	p := allocTestParams(warm + measure + 8)
	rs, err := prepareRun(data, p)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.close()
	if rs.shared.mut == nil {
		t.Fatal("accounted fault-free run must qualify for the in-place hot path")
	}
	rs.shared.batchHint = n
	d, err := newCycleDriver(data, rs, 1, len(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warm+1; i++ { // cycle 0 = assignment, then gossip
		d.nw.RunCycle()
	}
	for _, pt := range d.participants {
		if pt.phase != phaseGossip {
			t.Fatalf("participant %d not in gossip phase after warm-up", pt.id)
		}
	}
	allocs := testing.AllocsPerRun(measure, func() {
		d.nw.RunCycle()
	})
	if allocs != 0 {
		t.Fatalf("steady-state gossip cycle allocates %.2f heap objects (network-wide, n=%d), want 0", allocs, n)
	}
	for _, pt := range d.participants {
		if pt.phase != phaseGossip {
			t.Fatalf("participant %d left the gossip phase during measurement", pt.id)
		}
	}
}

// TestGossipCycleZeroAllocPacked re-proves the property with slot
// packing on: the packed hot path shares the same arena machinery.
func TestGossipCycleZeroAllocPacked(t *testing.T) {
	const n, warm, measure = 48, 40, 40
	data := allocTestData(t, n)
	p := allocTestParams(warm + measure + 8)
	p.Packed = true
	rs, err := prepareRun(data, p)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.close()
	rs.shared.batchHint = n
	d, err := newCycleDriver(data, rs, 1, len(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warm+1; i++ {
		d.nw.RunCycle()
	}
	allocs := testing.AllocsPerRun(measure, func() {
		d.nw.RunCycle()
	})
	if allocs != 0 {
		t.Fatalf("steady-state packed gossip cycle allocates %.2f heap objects, want 0", allocs)
	}
}

// TestMeasureGossipAllocs exercises the CLI/CI measurement helper and
// requires it to agree with the AllocsPerRun proof (zero on the hot
// path) and to reject windows that would leak out of the gossip phase.
func TestMeasureGossipAllocs(t *testing.T) {
	data := allocTestData(t, 32)
	rep, err := MeasureGossipAllocs(data, allocTestParams(64), 25, 25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AllocsPerCycle != 0 {
		t.Fatalf("MeasureGossipAllocs reports %.2f allocs/cycle on the hot path, want 0", rep.AllocsPerCycle)
	}
	if rep.Population != 32 || rep.Cycles != 25 {
		t.Fatalf("report shape = %+v", rep)
	}
	if _, err := MeasureGossipAllocs(data, allocTestParams(10), 25, 25); err == nil {
		t.Fatal("window longer than the gossip phase must be rejected")
	}
	if _, err := MeasureGossipAllocs(data, allocTestParams(64), 0, 5); err == nil {
		t.Fatal("empty warm-up must be rejected")
	}
}

// TestAsyncInboxZeroAlloc proves the async message fabric itself is
// allocation-free once warm: sends land in the fixed ring, drains reuse
// the env's pre-sized buffer, and no channel element churn remains. The
// proof deliberately scopes to the fabric (send + drain), not whole
// async participant activations — the async engine disables the
// in-place gossip hot path by design, so its steps allocate.
func TestAsyncInboxZeroAlloc(t *testing.T) {
	const n, capEach = 8, 64
	net := &asyncNet{inboxes: make([]*asyncInbox, n)}
	for i := range net.inboxes {
		net.inboxes[i] = newAsyncInbox(capEach)
	}
	envs := make([]*asyncEnv, n)
	for i := range envs {
		envs[i] = &asyncEnv{
			net:   net,
			id:    p2p.NodeID(i),
			rng:   compactrng.NewRand(int64(i) + 5),
			drain: make([]p2p.Message, 0, capEach),
		}
	}
	payload := &gossipPayload{} // pointer payload: interface boxing is free
	cycle := func() {
		for _, e := range envs {
			for k := 0; k < 4; k++ {
				peer, ok := e.RandomPeer()
				if !ok {
					t.Fatal("no peer")
				}
				if err := e.Send(peer, payload, 16); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, e := range envs {
			for range e.Inbox() {
			}
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("warmed async send+drain cycle allocates %.2f heap objects (fabric-wide, n=%d), want 0", allocs, n)
	}
	if net.dropped.Load() != 0 {
		t.Fatalf("ring overflow during measurement: %d drops", net.dropped.Load())
	}
}

// TestAsyncInboxOverflow pins the saturated-peer semantics: a full ring
// rejects the push and the sender counts the drop, exactly like the
// buffered channel it replaced.
func TestAsyncInboxOverflow(t *testing.T) {
	ib := newAsyncInbox(2)
	m := p2p.Message{Bytes: 1}
	if !ib.push(m) || !ib.push(m) {
		t.Fatal("pushes under capacity must succeed")
	}
	if ib.push(m) {
		t.Fatal("push into a full ring must fail")
	}
	got := ib.drainInto(nil)
	if len(got) != 2 {
		t.Fatalf("drained %d messages, want 2", len(got))
	}
	if !ib.push(m) {
		t.Fatal("push after drain must succeed (ring wrapped)")
	}
}

// decryptAllocBound is the decrypt phase's allocation budget per
// participant-cycle. Step 2c, the request window, the posted replies
// and the decode all run on participant-owned buffers, sized in the
// first decrypt phase and reused after it; what a later decrypt phase
// still allocates is the disclosure itself (the new centroid matrix and
// its counts, perturbedRecordAllocs).
const decryptAllocBound = 4

// perturbedRecordAllocs is what one finished iteration allocates per
// participant: the flat-backed centroid matrix (2) and the counts (1).
const perturbedRecordAllocs = 3

// TestDecryptCycleAllocs is the decrypt phase's counterpart of
// TestGossipCycleZeroAlloc: a complete accounted run in the scale
// workload's shape (internal/benchcfg) — all of whose decrypt
// quorums are served first time — is stepped cycle by cycle, and the
// heap objects of every decrypt-classified cycle are counted. The
// average must stay within decryptAllocBound per participant-cycle, and
// the second iteration's decrypt phase, once every buffer exists, may
// allocate nothing but the disclosure records.
func TestDecryptCycleAllocs(t *testing.T) {
	const n = 512
	data := allocTestData(t, n)
	rs, err := prepareRun(data, Params{
		K: benchcfg.ScaleK, Epsilon: benchcfg.ScaleEpsilon,
		Iterations: benchcfg.ScaleIterations, Seed: 11,
		GossipRounds:     benchcfg.ScaleGossipRounds,
		DecryptThreshold: benchcfg.ScaleDecryptThreshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.close()
	if rs.shared.mut == nil {
		t.Fatal("accounted fault-free run must qualify for the in-place hot path")
	}
	rs.shared.batchHint = n
	d, err := newCycleDriver(data, rs, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var total, cycles uint64
	perIter := make([]uint64, benchcfg.ScaleIterations)
	for c := 0; c < d.maxCycles() && !d.allAliveDone(); c++ {
		decrypt := d.dominantPhase() == phaseDecrypt
		iter := d.participants[0].iter
		runtime.ReadMemStats(&before)
		d.nw.RunCycle()
		runtime.ReadMemStats(&after)
		if decrypt {
			allocs := after.Mallocs - before.Mallocs
			total += allocs
			perIter[iter] += allocs
			cycles++
		}
	}
	if !d.allAliveDone() || cycles == 0 {
		t.Fatalf("run did not complete its decrypt phases (%d decrypt cycles)", cycles)
	}
	if avg := float64(total) / float64(cycles); avg > decryptAllocBound*n {
		t.Fatalf("decrypt cycles allocate %.0f heap objects on average (n=%d), want at most %d per participant-cycle (%d)", avg, n, decryptAllocBound, decryptAllocBound*n)
	}
	// A little slack over the records for the runtime's own bookkeeping.
	if got, limit := perIter[1], uint64(perturbedRecordAllocs*n+16); got > limit {
		t.Fatalf("second decrypt phase allocates %d heap objects, want at most %d: decrypt buffers must be reused, not rebuilt", got, limit)
	}
	t.Logf("decrypt phase: %d objects over %d cycles (first iteration %d, second %d)", total, cycles, perIter[0], perIter[1])
}

// TestMeasureDecryptAllocs exercises the decrypt-phase counterpart of
// the CLI/CI measurement helper: a complete small run must classify at
// least one cycle as decrypt-dominant and report a per-cycle average
// inside the decrypt allocation budget. Like the CLI gate it runs the
// scale workload's iteration count: the budget is a per-run average,
// and a single decrypt phase would carry the one-off buffer sizing
// alone (about 5 objects per participant-cycle at this shape).
func TestMeasureDecryptAllocs(t *testing.T) {
	const n = 24
	data := allocTestData(t, n)
	p := Params{K: 2, Epsilon: 50, Iterations: benchcfg.ScaleIterations, Seed: 11, GossipRounds: 6, DecryptThreshold: 3}
	rep, err := MeasureDecryptAllocs(data, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DecryptCycles < 1 {
		t.Fatalf("no decrypt-classified cycles in report %+v", rep)
	}
	if rep.Population != n {
		t.Fatalf("report population = %d, want %d", rep.Population, n)
	}
	if rep.AllocsPerCycle < 0 || rep.BytesPerCycle < 0 {
		t.Fatalf("negative averages in report %+v", rep)
	}
	if rep.AllocsPerCycle > decryptAllocBound*n {
		t.Fatalf("MeasureDecryptAllocs reports %.0f allocs/cycle (n=%d), want at most %d per participant-cycle", rep.AllocsPerCycle, n, decryptAllocBound)
	}
}

// TestHotPathGateMatrix pins when the in-place hot path may engage:
// never with a fault plan (delays and stalls break the message-
// consumption bound the emit double-buffering relies on), never on the
// async engine, never on the real backend.
func TestHotPathGateMatrix(t *testing.T) {
	data := allocTestData(t, 16)
	base := allocTestParams(12)
	base.DecryptThreshold = 3

	check := func(name string, mutate func(*Params), want bool) {
		t.Helper()
		p := base
		mutate(&p)
		rs, err := prepareRun(data, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer rs.close()
		if got := rs.shared.mut != nil; got != want {
			t.Errorf("%s: hot path enabled = %v, want %v", name, got, want)
		}
	}
	check("plain fault-free", func(p *Params) {}, true)
	check("plain with churn", func(p *Params) { p.ChurnCrashProb = 0.01; p.ChurnRejoinProb = 0.2 }, true)
	check("async engine", func(p *Params) { p.asyncEngine = true }, false)
	check("fault plan", func(p *Params) {
		pl, err := simnet.ParsePlan("drop=0.1")
		if err != nil {
			t.Fatal(err)
		}
		p.Faults = pl
	}, false)
	check("damgard-jurik", func(p *Params) {
		p.Backend = BackendDamgardJurik
		p.ModulusBits = 256
	}, false)
}
