package core

import (
	"errors"
	"math"
	"math/big"
	"reflect"
	"testing"

	"chiaroscuro/internal/gossip"
)

func TestRunAsyncRecoversClusters(t *testing.T) {
	data := blobs(120, 4, 3)
	init := [][]float64{
		{0.12, 0.12, 0.12, 0.12},
		{0.4, 0.4, 0.4, 0.4},
		{0.65, 0.65, 0.65, 0.65},
	}
	tr, err := RunAsync(data, Params{
		K: 3, Epsilon: 2000, Iterations: 4, Seed: 7,
		InitialCentroids: init, GossipRounds: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Iterations) == 0 {
		t.Fatal("no iterations completed")
	}
	// Asynchronous gossip mixes less evenly than the synchronous engine,
	// so allow a looser but still meaningful accuracy bound.
	last := tr.Iterations[len(tr.Iterations)-1]
	if last.NoiseRMSE > 0.1 {
		t.Fatalf("noise RMSE = %v", last.NoiseRMSE)
	}
	// The three blobs (levels 0.1, 0.3667, 0.6333) must be separated:
	// inertia far below the single-cluster baseline.
	if tr.Inertia > 5 {
		t.Fatalf("inertia = %v", tr.Inertia)
	}
}

func TestRunAsyncMatchesSyncQualitatively(t *testing.T) {
	data := blobs(80, 3, 2)
	p := Params{K: 2, Epsilon: 1000, Iterations: 3, Seed: 11, GossipRounds: 12}
	sync, err := Run(data, p)
	if err != nil {
		t.Fatal(err)
	}
	async, err := RunAsync(data, p)
	if err != nil {
		t.Fatal(err)
	}
	// Same data, same protocol: final inertia within a factor of 4
	// (async mixing is noisier but must find the same structure).
	lo, hi := sync.Inertia, async.Inertia
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo <= 0 {
		lo = 1e-9
	}
	if hi/lo > 4 && hi > 0.5 {
		t.Fatalf("engines disagree: sync inertia %v, async %v", sync.Inertia, async.Inertia)
	}
}

func TestRunAsyncStatsPopulated(t *testing.T) {
	data := blobs(40, 3, 2)
	tr, err := RunAsync(data, Params{K: 2, Epsilon: 100, Iterations: 2, Seed: 3, GossipRounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NetStats.MessagesSent == 0 || tr.NetStats.BytesSent == 0 {
		t.Fatalf("no traffic recorded: %+v", tr.NetStats)
	}
	if tr.Ops.Encrypts == 0 {
		t.Fatalf("no crypto ops recorded: %+v", tr.Ops)
	}
	if tr.Privacy.SpentEpsilon <= 0 {
		t.Fatalf("no budget spent: %+v", tr.Privacy)
	}
}

func TestRunAsyncRejectsChurn(t *testing.T) {
	data := blobs(20, 3, 2)
	if _, err := RunAsync(data, Params{K: 2, Epsilon: 1, ChurnCrashProb: 0.1}); err == nil {
		t.Fatal("churn must be rejected by the async engine")
	}
}

func TestRunAsyncValidation(t *testing.T) {
	if _, err := RunAsync(nil, Params{K: 1, Epsilon: 1}); err == nil {
		t.Fatal("empty data should error")
	}
	data := blobs(10, 3, 2)
	if _, err := RunAsync(data, Params{K: 0, Epsilon: 1}); err == nil {
		t.Fatal("k=0 should error")
	}
}

func TestRunAsyncTrackedInertia(t *testing.T) {
	data := blobs(60, 3, 2)
	tr, err := RunAsync(data, Params{
		K: 2, Epsilon: 2000, Iterations: 3, Seed: 5,
		TrackInertia: true, GossipRounds: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := tr.Iterations[len(tr.Iterations)-1]
	if math.IsNaN(last.PerturbedInertia) {
		t.Fatal("tracked inertia missing under async engine")
	}
	if last.PerturbedInertia < 0 || last.PerturbedInertia > 1 {
		t.Fatalf("implausible inertia estimate %v", last.PerturbedInertia)
	}
}

// TestDecodeRejectsOverBudgetExponent pins the headroom test behind a
// failed over-budget iteration on both engines' budgets: a state with
// w·2^e above population·2^expBudget fails decode with ErrExpBudget
// after the quorum combined, and finishing the iteration counts it as a
// decrypt failure and leaves the centroids where they were. The test is
// exact, not a cap on e alone: a light state may sit above expBudget and
// still decode, and a state exactly at the bound decodes.
func TestDecodeRejectsOverBudgetExponent(t *testing.T) {
	data := blobs(12, 3, 2)
	for _, async := range []bool{false, true} {
		rs, err := prepareRun(data, Params{K: 2, Epsilon: 100, Iterations: 2, Seed: 1, GossipRounds: 4, asyncEngine: async})
		if err != nil {
			t.Fatal(err)
		}
		r := rs.shared
		want := 6 // GossipRounds+2
		if async {
			want = 4*4 + 16
		}
		if r.expBudget != want {
			t.Fatalf("async=%v: exponent budget %d, want %d", async, r.expBudget, want)
		}
		pt := rs.newParticipant(0)
		vals := make([]Cipher, 2*r.sideCiphers)
		for i := range vals {
			if vals[i], err = r.suite.Encrypt(big.NewInt(0)); err != nil {
				t.Fatal(err)
			}
		}
		st, err := gossip.NewState[Cipher](r.ring, vals, 1)
		if err != nil {
			t.Fatal(err)
		}
		pt.diptych.Means = st
		pt.pendingCT = vals[:r.sideCiphers]
		pt.partials = nil
		for party := 1; party <= r.suite.Threshold(); party++ {
			parts := make([]Partial, len(pt.pendingCT))
			for i, c := range pt.pendingCT {
				if parts[i], err = partialOf(r.suite, party, c); err != nil {
					t.Fatal(err)
				}
			}
			pt.partials = append(pt.partials, parts) // ascending by party
		}
		n := float64(r.population)
		for _, tc := range []struct {
			w  float64
			e  int
			ok bool
		}{
			{n, r.expBudget, true},
			{n, r.expBudget + 1, false},
			{1, r.expBudget + 3, true}, // 2^(B+3) ≤ 12·2^B
			{1, r.expBudget + 4, false},
		} {
			st.W, st.Exp = tc.w, tc.e
			_, err := pt.decodeAll()
			if tc.ok && err != nil {
				t.Fatalf("async=%v: weight %g at exponent %d: %v", async, tc.w, tc.e, err)
			}
			if !tc.ok && !errors.Is(err, ErrExpBudget) {
				t.Fatalf("async=%v: weight %g at exponent %d: err = %v, want ErrExpBudget", async, tc.w, tc.e, err)
			}
		}

		// The over-budget state fails the iteration as a counted decrypt
		// failure; nothing is disclosed from it.
		before := deepCopyMatrix(pt.diptych.Centroids)
		pt.finishIteration(&scriptedEnv{n: len(data)}, false)
		if pt.decryptFail != 1 {
			t.Fatalf("async=%v: %d decrypt failures, want 1", async, pt.decryptFail)
		}
		last := pt.history[len(pt.history)-1]
		if !last.DecryptFailed || !reflect.DeepEqual(last.PerturbedCentroids, before) {
			t.Fatalf("async=%v: failed iteration disclosed %v (failed=%v), want the previous centroids %v",
				async, last.PerturbedCentroids, last.DecryptFailed, before)
		}
		rs.close()
	}
}
