// Command chiaroscuro runs the full privacy-preserving clustering
// protocol on a chosen workload and prints the per-iteration log the
// demonstration GUI renders (centroid evolution, noise impact, quality
// and cost measures), plus a final comparison against centralized
// k-means.
//
// Examples:
//
//	go run ./cmd/chiaroscuro
//	go run ./cmd/chiaroscuro -dataset tumor -n 1000 -k 4 -epsilon 1
//	go run ./cmd/chiaroscuro -backend damgard-jurik -n 20 -modulus 256
//	go run ./cmd/chiaroscuro -churn 0.02 -strategy geo-increasing
//
// The -bench-crypto mode skips the protocol entirely and measures the
// Damgård–Jurik per-operation timings on this machine, naive reference
// versus precomputed fast path (docs/CRYPTO.md), optionally writing the
// profiles as JSON for trend tracking (CI uploads BENCH_crypto.json):
//
//	go run ./cmd/chiaroscuro -bench-crypto
//	go run ./cmd/chiaroscuro -bench-crypto -modulus 512 -bench-reps 16 -bench-crypto-out BENCH_crypto.json
//
// The -bench-core mode times whole protocol runs — the engine comparison
// on the accounted backend and fully encrypted end-to-end runs, packed
// and unpacked — and optionally writes them as JSON (CI uploads
// BENCH_core.json next to BENCH_crypto.json, so the perf trajectory of
// the engines and of slot packing is tracked per push):
//
//	go run ./cmd/chiaroscuro -bench-core
//	go run ./cmd/chiaroscuro -bench-core -bench-core-out BENCH_core.json
//
// The -faults flag injects a deterministic fault scenario (simnet
// grammar; see docs/ARCHITECTURE.md "The simnet fault layer") into a
// normal run, and -bench-faults runs the E11 scenario table (CI uploads
// BENCH_faults.json so fault-resilience regressions show up as row
// diffs):
//
//	go run ./cmd/chiaroscuro -faults 'drop=0.1;outage@10+8=1,2:reset'
//	go run ./cmd/chiaroscuro -bench-faults -bench-faults-out BENCH_faults.json
//
// The -bench-scale mode measures the large-population memory profile:
// the steady-state gossip hot path's allocations per cycle (zero on the
// accounted backend — the arena layout of internal/vecpool) and one
// full accounted sharded run at -bench-scale-n participants. CI runs it
// at N=100k, uploads BENCH_scale.json, and fails the build if the
// hot-path figure regresses past the committed baseline:
//
//	go run ./cmd/chiaroscuro -bench-scale
//	go run ./cmd/chiaroscuro -bench-scale -bench-scale-n 100000 \
//	    -bench-scale-out BENCH_scale_ci.json -bench-scale-baseline BENCH_scale.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"chiaroscuro"
	"chiaroscuro/internal/core"
	"chiaroscuro/internal/costmodel"
	"chiaroscuro/internal/experiments"
)

func main() {
	var (
		dataset   = flag.String("dataset", "cer", "workload: cer | tumor")
		n         = flag.Int("n", 600, "number of participants (simulated devices)")
		k         = flag.Int("k", 5, "number of clusters")
		epsilon   = flag.Float64("epsilon", 1.0, "privacy budget ε at the target population")
		targetPop = flag.Int("target-pop", 1000000, "target deployment size ε refers to (demo scaling rule); 0 = use ε as-is")
		iters     = flag.Int("iterations", 6, "k-means iterations")
		rounds    = flag.Int("gossip-rounds", 0, "gossip exchanges per participant per aggregation (0 = auto)")
		threshold = flag.Int("threshold", 0, "partial decryptions needed (0 = auto)")
		strategy  = flag.String("strategy", "uniform", "budget strategy: uniform | geo-increasing | geo-decreasing | final-boost")
		smoothing = flag.String("smoothing", "moving-average", "perturbed-mean smoothing: none | moving-average | exponential")
		backend   = flag.String("backend", "accounted", "cipher backend: accounted | damgard-jurik")
		engine    = flag.String("engine", "cycles", "execution engine: cycles | sharded | async (sharded is bit-identical to cycles, parallelized)")
		workers   = flag.Int("workers", 0, "shard workers for -engine sharded (0 = GOMAXPROCS)")
		packed    = flag.Bool("packed", false, "pack multiple coordinates per ciphertext on the encrypted side (slot packing)")
		modulus   = flag.Int("modulus", 0, "key size in bits (0 = default)")
		seed      = flag.Int64("seed", 2016, "random seed (whole run is deterministic)")
		churn     = flag.Float64("churn", 0, "per-cycle crash probability")
		faults    = flag.String("faults", "", "deterministic fault scenario, e.g. 'drop=0.05;delay=0.2x3;outage@10+8=1,2:reset;garble=7' (see docs/ARCHITECTURE.md)")
		quiet     = flag.Bool("quiet", false, "suppress the per-iteration log")

		benchCrypto    = flag.Bool("bench-crypto", false, "measure Damgård–Jurik op timings (naive vs fast path) and exit")
		benchCryptoOut = flag.String("bench-crypto-out", "", "with -bench-crypto: also write the profiles as JSON to this file")
		benchReps      = flag.Int("bench-reps", 8, "with -bench-crypto: repetitions per measured operation")
		benchCore      = flag.Bool("bench-core", false, "time full protocol runs (engines, packed vs unpacked end-to-end) and exit")
		benchCoreOut   = flag.String("bench-core-out", "", "with -bench-core: also write the results as JSON to this file")
		benchFaults    = flag.Bool("bench-faults", false, "run the E11 fault-injection scenario table at quick scale and exit")
		benchFaultsOut = flag.String("bench-faults-out", "", "with -bench-faults: also write the table as JSON to this file")

		benchScale         = flag.Bool("bench-scale", false, "measure the large-population memory profile (hot-path allocs/cycle + full sharded run) and exit")
		benchScaleN        = flag.Int("bench-scale-n", 100000, "with -bench-scale: population of the timed sharded run")
		benchScaleOut      = flag.String("bench-scale-out", "", "with -bench-scale: also write the results as JSON to this file")
		benchScaleBaseline = flag.String("bench-scale-baseline", "", "with -bench-scale: fail if hot-path allocs/cycle regress past this committed BENCH_scale.json")

		stream          = flag.Bool("stream", false, "streaming mode: cluster a sliding window of the workload repeatedly, drawing each window's ε from -lifetime-epsilon")
		windows         = flag.Int("windows", 8, "with -stream: number of windows to run (also the budget strategy's planning horizon)")
		windowSlide     = flag.Int("window-slide", 4, "with -stream: samples appended (and evicted) per window advance")
		warmStart       = flag.Bool("warm-start", false, "with -stream: seed each window's centroids from the previous window's disclosure")
		lifetimeEpsilon = flag.Float64("lifetime-epsilon", 8, "with -stream: longitudinal privacy budget across all windows")
		budgetStrategy  = flag.String("budget-strategy", "uniform", "with -stream: per-window ε spend policy: uniform | decaying | threshold")
		driftThreshold  = flag.Float64("drift-threshold", 0, "with -stream and -budget-strategy threshold: re-cluster only when centroid drift exceeds this (0 = default 0.05)")
		converge        = flag.Float64("converge", 0, "early-stop threshold on centroid displacement (0 = disabled)")

		benchStream    = flag.Bool("bench-stream", false, "measure warm-start vs cold re-clustering over a drifting stream and exit")
		benchStreamN   = flag.Int("bench-stream-n", 10000, "with -bench-stream: population size")
		benchStreamOut = flag.String("bench-stream-out", "", "with -bench-stream: also write the results as JSON to this file")
	)
	flag.Parse()

	if *benchCrypto {
		if err := runBenchCrypto(*modulus, *benchReps, *benchCryptoOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *benchCore {
		if err := runBenchCore(*benchCoreOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *benchFaults {
		if err := runBenchFaults(*benchFaultsOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *benchScale {
		if err := runBenchScale(*benchScaleN, *benchScaleOut, *benchScaleBaseline); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *benchStream {
		if err := runBenchStream(*benchStreamN, *benchStreamOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *stream {
		err := runStream(streamOptions{
			dataset:          *dataset,
			n:                *n,
			k:                *k,
			lifetimeEpsilon:  *lifetimeEpsilon,
			windows:          *windows,
			slide:            *windowSlide,
			warmStart:        *warmStart,
			budgetStrategy:   *budgetStrategy,
			driftThreshold:   *driftThreshold,
			iterations:       *iters,
			converge:         *converge,
			gossipRounds:     *rounds,
			decryptThreshold: *threshold,
			engine:           *engine,
			workers:          *workers,
			seed:             *seed,
			quiet:            *quiet,
		})
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	series, _, archetypes, err := load(*dataset, *n, *seed)
	if err != nil {
		log.Fatal(err)
	}
	if _, _, err := chiaroscuro.Normalize01(series); err != nil {
		log.Fatal(err)
	}
	dim := len(series[0])

	eps := *epsilon
	if *targetPop > 0 {
		eps, err = chiaroscuro.ScaleEpsilonForPopulation(*epsilon, *targetPop, *n)
		if err != nil {
			log.Fatal(err)
		}
	}

	init := chiaroscuro.LevelInit(*k, dim)
	cfg := chiaroscuro.Config{
		Faults:           *faults,
		K:                *k,
		Epsilon:          eps,
		Iterations:       *iters,
		GossipRounds:     *rounds,
		DecryptThreshold: *threshold,
		Backend:          chiaroscuro.Backend(*backend),
		Engine:           *engine,
		Workers:          *workers,
		Packed:           *packed,
		ModulusBits:      *modulus,
		Strategy:         *strategy,
		Smoothing:        chiaroscuro.Smoothing{Method: *smoothing},
		InitialCentroids: init,
		Seed:             *seed,
		ChurnCrashProb:   *churn,
	}
	if *churn > 0 {
		cfg.ChurnRejoinProb = 0.3
	}

	fmt.Printf("chiaroscuro: %s workload, %d participants, k=%d, ε=%.4g", *dataset, *n, *k, eps)
	if *targetPop > 0 {
		fmt.Printf(" (ε=%.2g at %d devices)", *epsilon, *targetPop)
	}
	fmt.Printf(", backend=%s, engine=%s", *backend, *engine)
	if *packed {
		fmt.Printf(", packed")
	}
	fmt.Println()
	fmt.Printf("archetypes in the generator: %v\n\n", archetypes)

	res, err := chiaroscuro.Cluster(series, cfg)
	if err != nil {
		log.Fatal(err)
	}

	if !*quiet {
		fmt.Println("iter   ε_i      noise RMSE   cluster sizes (perturbed, relative)")
		for _, it := range res.Trace {
			fmt.Printf("%4d   %-8.4g %-12.4f %v\n", it.Index+1, it.Epsilon, it.NoiseRMSE, compact(it.Counts))
		}
		fmt.Println()
	}

	base, err := chiaroscuro.CentralizedKMeans(series, *k, 40, *seed, init)
	if err != nil {
		log.Fatal(err)
	}
	ratio, rmse, ari, err := chiaroscuro.CompareToBaseline(res, base)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("quality:  inertia %.3f (centralized %.3f, ratio %.3f)   centroid RMSE %.4f   ARI %.3f\n",
		res.Inertia, base.Inertia, ratio, rmse, ari)
	fmt.Printf("privacy:  ε spent %.4g over %d disclosures   gossip distortion %.2e\n",
		res.Privacy.EpsilonSpent, res.Privacy.Disclosures, res.Privacy.GossipRelErr)
	fmt.Printf("network:  %d messages (%.1f MB), %d dropped, %d cycles\n",
		res.Network.MessagesSent, float64(res.Network.BytesSent)/1e6,
		res.Network.MessagesDropped, res.Network.Cycles)
	if *faults != "" {
		fmt.Printf("faults:   %d dropped, %d duplicated, %d delayed by scenario; %d/%d participants completed\n",
			res.Network.FaultDropped, res.Network.Duplicated, res.Network.Delayed,
			res.Completed, *n)
	}
	fmt.Printf("crypto:   %d enc, %d add, %d emit-refresh, %d align-square, %d partial-dec, %d combine (%s)\n",
		res.Crypto.Encrypts, res.Crypto.Adds, res.Crypto.Halvings, res.Crypto.Squarings,
		res.Crypto.PartialDecrypts, res.Crypto.Combines, *backend)
	if res.DecryptFailures > 0 {
		fmt.Printf("warning:  %d decryption quorum failures (degraded iterations)\n", res.DecryptFailures)
	}
	if res.ConvergedAtIteration >= 0 {
		fmt.Printf("converged after iteration %d\n", res.ConvergedAtIteration+1)
	}
	fmt.Printf("elapsed:  %s\n", res.Elapsed.Round(1e6))
	os.Exit(0)
}

// cryptoBenchEntry is one key size's measurements in the JSON artifact.
type cryptoBenchEntry struct {
	*costmodel.CryptoProfile
	Speedups map[string]float64 `json:"Speedups"`
	// KeyCeremony is the wall-clock of one full in-memory distributed
	// key generation (every party's state machine, fresh genesis) at
	// this modulus size — the one-time cost a deployment pays to run
	// without a trusted dealer.
	KeyCeremony time.Duration `json:"KeyCeremony"`
}

// cryptoBenchResult is the BENCH_crypto.json schema: stable enough that
// CI artifacts from successive commits can be diffed for perf trends.
type cryptoBenchResult struct {
	Schema    string             `json:"Schema"` // "chiaroscuro-bench-crypto/v1"
	Timestamp string             `json:"Timestamp"`
	Parties   int                `json:"Parties"`
	Threshold int                `json:"Threshold"`
	Reps      int                `json:"Reps"`
	Profiles  []cryptoBenchEntry `json:"Profiles"`
}

// runBenchCrypto measures naive vs fast-path crypto timings at the given
// modulus size (0 = the 512/1024 pair) and prints a table; with a
// non-empty out path it also writes the JSON artifact.
func runBenchCrypto(modulus, reps int, out string) error {
	sizes := []int{512, 1024}
	if modulus != 0 {
		sizes = []int{modulus}
	}
	const parties, threshold = 8, 5
	res := cryptoBenchResult{
		Schema:    "chiaroscuro-bench-crypto/v1",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Parties:   parties,
		Threshold: threshold,
		Reps:      reps,
	}
	fmt.Printf("damgård–jurik op timings, naive vs fast path (s=1, %d-of-%d, %d reps)\n\n", threshold, parties, reps)
	fmt.Println("bits   op               naive        fast         speedup")
	for _, bits := range sizes {
		p, err := costmodel.MeasureProfile(bits, 1, parties, threshold, reps)
		if err != nil {
			return err
		}
		sp := p.Speedups()
		rows := []struct {
			name        string
			naive, fast time.Duration
		}{
			{"encrypt", p.Encrypt, p.FastEncrypt},
			{"decrypt", p.Decrypt, p.FastDecrypt},
			{"partial-decrypt", p.PartialDecrypt, p.FastPartialDecrypt},
			{"combine", p.Combine, p.FastCombine},
			{"rerandomize", p.Rerandomize, p.FastRerandomize},
		}
		for _, r := range rows {
			fmt.Printf("%-6d %-16s %-12s %-12s %.2fx\n",
				bits, r.name, r.naive.Round(time.Microsecond), r.fast.Round(time.Microsecond), sp[r.name])
		}
		fmt.Printf("%-6d %-16s %-12s %-12s\n", bits, "hom-add", p.Add.Round(time.Nanosecond), "-")
		start := time.Now()
		if _, err := core.RunDJKeyCeremony(bits, 1, parties, threshold, 1, nil); err != nil {
			return err
		}
		ceremony := time.Since(start)
		fmt.Printf("%-6d %-16s %-12s %-12s\n", bits, "key-ceremony", ceremony.Round(time.Microsecond), "-")
		fmt.Println()
		res.Profiles = append(res.Profiles, cryptoBenchEntry{CryptoProfile: p, Speedups: sp, KeyCeremony: ceremony})
	}
	if out == "" {
		return nil
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// coreBenchEntry is one timed protocol run in the BENCH_core.json
// artifact: configuration, wall-clock, and the homomorphic-operation and
// network totals that make packing regressions visible in a diff.
type coreBenchEntry struct {
	Name       string
	Backend    string
	Engine     string
	Packed     bool
	N          int
	Dim        int
	K          int
	Iterations int

	Elapsed      time.Duration
	Encrypts     int64
	Halvings     int64
	PartialDecs  int64
	Combines     int64
	MessagesSent int
	BytesSent    int64
}

// coreBenchResult is the BENCH_core.json schema: stable enough that CI
// artifacts from successive commits can be diffed for perf trends,
// companion to BENCH_crypto.json's per-operation view.
type coreBenchResult struct {
	Schema    string           `json:"Schema"` // "chiaroscuro-bench-core/v1"
	Timestamp string           `json:"Timestamp"`
	Runs      []coreBenchEntry `json:"Runs"`
}

// runBenchCore times full protocol runs: the engine comparison on the
// accounted backend and fully encrypted end-to-end runs, packed and
// unpacked, and prints a table; with a non-empty out path it also writes
// the JSON artifact.
func runBenchCore(out string) error {
	res := coreBenchResult{
		Schema:    "chiaroscuro-bench-core/v1",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	run := func(name string, series [][]float64, cfg chiaroscuro.Config) error {
		start := time.Now()
		r, err := chiaroscuro.Cluster(series, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		engine := cfg.Engine
		if engine == "" {
			engine = "cycles"
		}
		backend := string(cfg.Backend)
		if backend == "" {
			backend = string(chiaroscuro.BackendAccounted)
		}
		res.Runs = append(res.Runs, coreBenchEntry{
			Name:         name,
			Backend:      backend,
			Engine:       engine,
			Packed:       cfg.Packed,
			N:            len(series),
			Dim:          len(series[0]),
			K:            cfg.K,
			Iterations:   cfg.Iterations,
			Elapsed:      time.Since(start),
			Encrypts:     r.Crypto.Encrypts,
			Halvings:     r.Crypto.Halvings,
			PartialDecs:  r.Crypto.PartialDecrypts,
			Combines:     r.Crypto.Combines,
			MessagesSent: r.Network.MessagesSent,
			BytesSent:    r.Network.BytesSent,
		})
		return nil
	}

	// Engine comparison: the accounted backend at a CI-friendly
	// population, sequential vs sharded (bit-identical traces), then the
	// packed accounted run (bit-identical disclosures, fewer ring ops).
	acc, _, _ := chiaroscuro.SyntheticCER(600, 12, 1)
	if _, _, err := chiaroscuro.Normalize01(acc); err != nil {
		return err
	}
	accCfg := chiaroscuro.Config{K: 3, Epsilon: 50, Iterations: 2, Seed: 1, GossipRounds: 10, DecryptThreshold: 4}
	for _, engine := range []string{"cycles", "sharded"} {
		cfg := accCfg
		cfg.Engine = engine
		if err := run("accounted-"+engine, acc, cfg); err != nil {
			return err
		}
	}
	{
		cfg := accCfg
		cfg.Packed = true
		if err := run("accounted-cycles-packed", acc, cfg); err != nil {
			return err
		}
	}

	// End-to-end real crypto, unpacked vs packed: the slot-packing
	// speedup measured on genuine homomorphic arithmetic.
	dj, _, _ := chiaroscuro.SyntheticTumorGrowth(16, 10, 1)
	if _, _, err := chiaroscuro.Normalize01(dj); err != nil {
		return err
	}
	djCfg := chiaroscuro.Config{
		K: 2, Epsilon: 100, Iterations: 2, Seed: 1,
		Backend: chiaroscuro.BackendDamgardJurik, ModulusBits: 256,
		DecryptThreshold: 4, GossipRounds: 8,
	}
	if err := run("damgard-jurik-unpacked", dj, djCfg); err != nil {
		return err
	}
	djCfg.Packed = true
	if err := run("damgard-jurik-packed", dj, djCfg); err != nil {
		return err
	}

	fmt.Println("run                        elapsed      encrypts  halvings  partial-dec  bytes")
	for _, e := range res.Runs {
		fmt.Printf("%-26s %-12s %-9d %-9d %-12d %.2f MB\n",
			e.Name, e.Elapsed.Round(time.Millisecond), e.Encrypts, e.Halvings, e.PartialDecs,
			float64(e.BytesSent)/1e6)
	}
	if out == "" {
		return nil
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// faultsBenchResult is the BENCH_faults.json schema: the E11 scenario
// table verbatim (scenarios are deterministic, so successive CI
// artifacts diff cleanly — a changed row is a behaviour change).
type faultsBenchResult struct {
	Schema    string     `json:"Schema"` // "chiaroscuro-bench-faults/v1"
	Timestamp string     `json:"Timestamp"`
	Header    []string   `json:"Header"`
	Rows      [][]string `json:"Rows"`
}

// runBenchFaults runs the E11 fault-injection experiment at quick scale
// and prints the table; with a non-empty out path it also writes the
// JSON artifact CI uploads next to the other bench artifacts.
func runBenchFaults(out string) error {
	tab, err := experiments.E11FaultInjection(experiments.Quick)
	if err != nil {
		return err
	}
	fmt.Println(tab.Markdown())
	if out == "" {
		return nil
	}
	res := faultsBenchResult{
		Schema:    "chiaroscuro-bench-faults/v1",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Header:    tab.Header,
		Rows:      tab.Rows,
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

func load(name string, n int, seed int64) ([][]float64, []int, []string, error) {
	switch name {
	case "cer":
		s, l, a := chiaroscuro.SyntheticCER(n, 24, seed)
		return s, l, a, nil
	case "tumor":
		s, l, a := chiaroscuro.SyntheticTumorGrowth(n, 20, seed)
		return s, l, a, nil
	default:
		return nil, nil, nil, fmt.Errorf("unknown dataset %q (want cer or tumor)", name)
	}
}

func compact(counts []float64) []string {
	out := make([]string, len(counts))
	for i, c := range counts {
		out[i] = fmt.Sprintf("%.3f", c)
	}
	return out
}
