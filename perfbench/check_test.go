package main

import (
	"math"
	"slices"
	"testing"

	"chiaroscuro"
	"chiaroscuro/internal/core"
)

// flip toggles the lowest mantissa bit of *x: the smallest corruption a
// float can suffer.
func flip(x *float64) { *x = math.Float64frombits(math.Float64bits(*x) ^ 1) }

func cloneMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i, r := range m {
		out[i] = slices.Clone(r)
	}
	return out
}

// cloneResult deep-copies the disclosure fields the checks read.
func cloneResult(r *chiaroscuro.Result) *chiaroscuro.Result {
	c := *r
	c.Centroids = cloneMatrix(r.Centroids)
	c.Trace = slices.Clone(r.Trace)
	for i := range c.Trace {
		c.Trace[i].Centroids = cloneMatrix(r.Trace[i].Centroids)
		c.Trace[i].Counts = slices.Clone(r.Trace[i].Counts)
	}
	return &c
}

// smallRun is a test-sized version of a sim workload: same shape, a
// small population and modulus.
func smallRun(t *testing.T, w simWorkload, n int, tweak func(*chiaroscuro.Config)) ([][]float64, chiaroscuro.Config, *chiaroscuro.Result) {
	t.Helper()
	series, _, _, err := chiaroscuro.SyntheticCERErr(n, 4, 5)
	if series, err = normalized(series, err); err != nil {
		t.Fatal(err)
	}
	cfg := w.config(5, len(series[0]))
	tweak(&cfg)
	res, err := chiaroscuro.Cluster(series, cfg)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	return series, cfg, res
}

func TestAccountedCheckCatchesFlippedCentroidBit(t *testing.T) {
	_, cfg, res := smallRun(t, simAccounted, 600, func(c *chiaroscuro.Config) { c.Epsilon = 5000 })
	if err := checkAccounted(res, 600, cfg.Epsilon); err != nil {
		t.Fatalf("clean run fails the check: %v", err)
	}
	bad := cloneResult(res)
	flip(&bad.Centroids[1][2])
	if checkAccounted(bad, 600, cfg.Epsilon) == nil {
		t.Error("check passed a result whose final centroids differ from the last disclosure by one bit")
	}
	bad = cloneResult(res)
	flip(&bad.Trace[0].Centroids[0][0])
	if checkSameDisclosure(bad, res) == nil {
		t.Error("repeat-run check passed a disclosure that differs by one bit")
	}
}

func TestTwinCheckCatchesFlippedCentroidBit(t *testing.T) {
	series, cfg, res := smallRun(t, simDJ, 12, func(c *chiaroscuro.Config) {
		c.ModulusBits, c.Iterations, c.DecryptThreshold = 256, 2, 3
	})
	cfg.Backend = chiaroscuro.BackendAccounted
	twin, err := chiaroscuro.Cluster(series, cfg)
	if err != nil {
		t.Fatalf("accounted twin: %v", err)
	}
	if err := checkSameDisclosure(res, twin); err != nil {
		t.Fatalf("real-crypto run differs from its accounted twin: %v", err)
	}
	bad := cloneResult(res)
	flip(&bad.Trace[1].Centroids[0][3])
	if checkSameDisclosure(bad, twin) == nil {
		t.Error("twin check passed a disclosure that differs by one bit")
	}
}

func TestTraceCrossCheckCatchesFlippedCentroidBit(t *testing.T) {
	for _, w := range []simWorkload{simAccounted, simDJ} {
		series, cfg, res := smallRun(t, w, 12, func(c *chiaroscuro.Config) {
			c.ModulusBits, c.DecryptThreshold, c.Epsilon = 256, 3, 5000
		})
		ct, err := core.RunSharded(series, coreParams(cfg))
		if err != nil {
			t.Fatalf("%s: core.RunSharded: %v", w.name, err)
		}
		if err := checkTraceMatches(ct, res); err != nil {
			t.Fatalf("%s: hand-built core.Params disclose differently from Cluster: %v", w.name, err)
		}
		flip(&ct.Iterations[0].PerturbedCentroids[1][0])
		if checkTraceMatches(ct, res) == nil {
			t.Errorf("%s: cross-check passed a trace that differs by one bit", w.name)
		}
	}
}

func TestMeshCheckCatchesFlippedCentroidBit(t *testing.T) {
	in, err := prepareMesh(options{seed: 3, work: t.TempDir()}, 2, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]core.IterationResult, len(in.ref))
	for id, h := range in.ref {
		got[id] = slices.Clone(h)
		for i := range got[id] {
			got[id][i].PerturbedCentroids = cloneMatrix(h[i].PerturbedCentroids)
		}
	}
	if err := checkMesh(got, in.ref); err != nil {
		t.Fatalf("identical histories fail the check: %v", err)
	}
	flip(&got[2][1].PerturbedCentroids[0][5])
	if checkMesh(got, in.ref) == nil {
		t.Error("mesh check passed a history that differs by one bit")
	}
}

func TestMeshRunMatchesReference(t *testing.T) {
	in, err := prepareMesh(options{seed: 4, work: t.TempDir()}, 2, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ckpt := range []bool{false, true} {
		o, err := in.run(ckpt, newTracer(), -1)
		if err != nil {
			t.Fatalf("checkpoint=%v: %v", ckpt, err)
		}
		if o.checkErr != nil {
			t.Errorf("checkpoint=%v: %v", ckpt, o.checkErr)
		}
		if got, want := o.hooks.dials.Load(), int64(meshNodes*(meshNodes-1)/2); got != want {
			t.Errorf("checkpoint=%v: %d dials, want %d", ckpt, got, want)
		}
		if ckpt && len(o.ckptBytes) != meshNodes {
			t.Errorf("%d final checkpoints, want %d", len(o.ckptBytes), meshNodes)
		}
	}
	if in.failed != 0 {
		t.Errorf("%d of %d participant-iterations failed", in.failed, in.attempted)
	}
}

func TestQuantileAndCoverage(t *testing.T) {
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	spans := []span{{StartUS: 0, EndUS: 10}, {StartUS: 5, EndUS: 12}, {StartUS: 20, EndUS: 25}}
	if got := covered(spans); got != 17 {
		t.Errorf("covered = %d, want 17", got)
	}
}
