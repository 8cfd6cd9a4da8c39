package main

import (
	"errors"
	"fmt"
	"math"

	"chiaroscuro"
	"chiaroscuro/internal/core"
	"chiaroscuro/internal/transport/conformance"
)

// The output checks below hold for every seed: each compares the run
// against an invariant or an independent reference, never against a
// recorded value.

// maxGossipRelErr bounds the accounted population-scale run's
// disclosure distortion: the last iteration's perturbed relative counts
// must sum to 1 within this (each is N_j/N plus noise of scale ~1e-5 at
// the workload's N and ε, plus push-sum error).
const maxGossipRelErr = 0.01

// checkAccounted is the sim-accounted output check: every participant
// completed with no decryption failure, the whole budget was spent, the
// disclosed relative counts sum to 1 within the recorded gossip error
// (itself small), and the returned centroids are the last disclosure
// bit for bit.
func checkAccounted(res *chiaroscuro.Result, n int, epsilon float64) error {
	if res.Completed != n {
		return fmt.Errorf("%d of %d participants completed", res.Completed, n)
	}
	if res.DecryptFailures != 0 {
		return fmt.Errorf("%d decryption failures", res.DecryptFailures)
	}
	if res.Privacy.EpsilonSpent != epsilon {
		return fmt.Errorf("spent ε=%v, want %v", res.Privacy.EpsilonSpent, epsilon)
	}
	if len(res.Trace) == 0 {
		return errors.New("no disclosed iteration")
	}
	last := res.Trace[len(res.Trace)-1]
	var sum float64
	for _, c := range last.Counts {
		sum += c
	}
	if d := math.Abs(sum - 1); d > res.Privacy.GossipRelErr || res.Privacy.GossipRelErr > maxGossipRelErr {
		return fmt.Errorf("relative counts sum to %v (gossip error %v, bound %v)", sum, res.Privacy.GossipRelErr, maxGossipRelErr)
	}
	if err := equalMatrix(res.Centroids, last.Centroids); err != nil {
		return fmt.Errorf("final centroids differ from the last disclosure: %w", err)
	}
	return nil
}

// checkSameDisclosure demands bit-identical disclosed trajectories:
// every iteration's centroids and counts, compared by IEEE-754 bits.
// sim-dj checks its real-crypto run against the accounted twin with it
// (decryptions are exact, so the backends must agree); every workload
// checks repeated runs of one input against the first with it.
func checkSameDisclosure(got, want *chiaroscuro.Result) error {
	if len(got.Trace) != len(want.Trace) {
		return fmt.Errorf("%d disclosed iterations, want %d", len(got.Trace), len(want.Trace))
	}
	for i := range want.Trace {
		if err := equalMatrix(got.Trace[i].Centroids, want.Trace[i].Centroids); err != nil {
			return fmt.Errorf("iteration %d centroids: %w", i, err)
		}
		if err := equalVector(got.Trace[i].Counts, want.Trace[i].Counts); err != nil {
			return fmt.Errorf("iteration %d counts: %w", i, err)
		}
	}
	return equalMatrix(got.Centroids, want.Centroids)
}

// checkTraceMatches is the traced-run cross-check: the core.RunSharded
// trace built from the benchmark's own Config→Params mapping must
// disclose exactly what the public Cluster call disclosed.
func checkTraceMatches(tr *core.Trace, res *chiaroscuro.Result) error {
	if len(tr.Iterations) != len(res.Trace) {
		return fmt.Errorf("core trace has %d iterations, Cluster %d", len(tr.Iterations), len(res.Trace))
	}
	for i, it := range tr.Iterations {
		if err := equalMatrix(it.PerturbedCentroids, res.Trace[i].Centroids); err != nil {
			return fmt.Errorf("iteration %d: %w", i, err)
		}
	}
	return nil
}

// checkMesh requires every node's disclosed history to equal the
// sequential engine's history for the same participant.
func checkMesh(got, want [][]core.IterationResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d histories, want %d", len(got), len(want))
	}
	for id := range want {
		if err := conformance.EqualHistories(got[id], want[id]); err != nil {
			return fmt.Errorf("node %d: %w", id, err)
		}
	}
	return nil
}

func equalVector(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("[%d] bits differ: %v vs %v", i, got[i], want[i])
		}
	}
	return nil
}

func equalMatrix(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if err := equalVector(got[i], want[i]); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}
