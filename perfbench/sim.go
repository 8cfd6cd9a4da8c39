package main

import (
	"fmt"
	"time"

	"chiaroscuro"
	"chiaroscuro/internal/benchcfg"
	"chiaroscuro/internal/core"
	"chiaroscuro/internal/dp"
)

// simWorkload is one population-scale simulator workload: a synthetic
// population drawn from the seed and one protocol shape, run through
// the public chiaroscuro.Cluster entry point.
type simWorkload struct {
	name string
	n    int
	// series draws the population's normalized series from the seed.
	series func(seed int64) ([][]float64, error)
	// shape is the protocol configuration; Seed and InitialCentroids
	// are filled per run.
	shape chiaroscuro.Config
	// twin marks a real-crypto workload whose disclosure is checked
	// against the same run on the accounted backend.
	twin bool
	// qualityInputs is how many more inputs, drawn from the seed and run
	// on the accounted backend, inertia_ratio is the median over. At a
	// small population one input's ratio depends on its noise draw.
	qualityInputs int
}

// simAccounted is the BENCH_scale.json shape (internal/benchcfg) at
// N=100 000 on the accounted backend and the sharded engine.
var simAccounted = simWorkload{
	name: "sim-accounted",
	n:    100_000,
	series: func(seed int64) ([][]float64, error) {
		s, _, _, err := chiaroscuro.SyntheticCERErr(100_000, benchcfg.ScaleDim, seed)
		return normalized(s, err)
	},
	shape: chiaroscuro.Config{
		K:                benchcfg.ScaleK,
		Epsilon:          benchcfg.ScaleEpsilon,
		Iterations:       benchcfg.ScaleIterations,
		GossipRounds:     benchcfg.ScaleGossipRounds,
		DecryptThreshold: benchcfg.ScaleDecryptThreshold,
		Engine:           benchcfg.ScaleEngine,
	},
}

// simDJ runs real threshold Damgård–Jurik (1024-bit, s=1, packed) on a
// small tumor-growth population.
var simDJ = simWorkload{
	name: "sim-dj",
	n:    64,
	series: func(seed int64) ([][]float64, error) {
		s, _, _, err := chiaroscuro.SyntheticTumorGrowthErr(64, 10, seed)
		return normalized(s, err)
	},
	shape: chiaroscuro.Config{
		K:                2,
		Epsilon:          100,
		Iterations:       3,
		GossipRounds:     8,
		DecryptThreshold: 4,
		Backend:          chiaroscuro.BackendDamgardJurik,
		ModulusBits:      1024,
		Degree:           1,
		Packed:           true,
		Engine:           "sharded",
	},
	twin:          true,
	qualityInputs: 24,
}

func normalized(series [][]float64, err error) ([][]float64, error) {
	if err != nil {
		return nil, err
	}
	if _, _, err := chiaroscuro.Normalize01(series); err != nil {
		return nil, err
	}
	return series, nil
}

// config is the workload's Config for one seed: the seed drives the
// protocol, and both Cluster and the centralized baseline start from
// the data-independent level centroids.
func (w simWorkload) config(seed int64, dim int) chiaroscuro.Config {
	cfg := w.shape
	cfg.Seed = seed
	cfg.InitialCentroids = chiaroscuro.LevelInit(cfg.K, dim)
	return cfg
}

// streamConfig is the same protocol shape opened as a one-window
// stream: OpenStream builds the arena, key and cipher suite Cluster
// builds, which is what setup_s times.
func streamConfig(cfg chiaroscuro.Config) chiaroscuro.Config {
	cfg.LifetimeEpsilon, cfg.Epsilon, cfg.Windows = cfg.Epsilon, 0, 1
	return cfg
}

// coreParams maps the workload's Config onto core.Params by hand, for
// the traced run's direct core.RunSharded call; the traced run checks
// the mapping by requiring the same disclosure as Cluster.
func coreParams(cfg chiaroscuro.Config) core.Params {
	backend := core.BackendPlainAccounted
	if cfg.Backend == chiaroscuro.BackendDamgardJurik {
		backend = core.BackendDamgardJurik
	}
	return core.Params{
		K:                cfg.K,
		Epsilon:          cfg.Epsilon,
		Iterations:       cfg.Iterations,
		GossipRounds:     cfg.GossipRounds,
		DecryptThreshold: cfg.DecryptThreshold,
		Backend:          backend,
		ModulusBits:      cfg.ModulusBits,
		Degree:           cfg.Degree,
		Strategy:         dp.Uniform{},
		InitialCentroids: cfg.InitialCentroids,
		Seed:             cfg.Seed,
		Packed:           cfg.Packed,
		MaxValue:         1,
	}
}

// simRun is one workload's inputs and references for a seed.
type simRun struct {
	w      simWorkload
	series [][]float64
	cfg    chiaroscuro.Config
	base   *chiaroscuro.KMeansResult
	twin   *chiaroscuro.Result // accounted twin (real-crypto workloads)
	first  *chiaroscuro.Result // first run: later runs must repeat it

	attempted, failed int
}

func (w simWorkload) prepare(seed int64, tr *tracer, parent int) (*simRun, error) {
	r := &simRun{w: w}
	err := tr.do("datasets.synthetic", parent, func() error {
		var err error
		r.series, err = w.series(seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.cfg = w.config(seed, len(r.series[0]))
	err = tr.do("kmeans.CentralizedKMeans", parent, func() error {
		var err error
		r.base, err = chiaroscuro.CentralizedKMeans(r.series, r.cfg.K, r.cfg.Iterations, seed, r.cfg.InitialCentroids)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if w.twin {
		err = tr.do("chiaroscuro.Cluster.accounted-twin", parent, func() error {
			cfg := r.cfg
			cfg.Backend = chiaroscuro.BackendAccounted
			var err error
			r.twin, err = chiaroscuro.Cluster(r.series, cfg)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("accounted twin: %w", err)
		}
	}
	return r, nil
}

// inertiaRatios runs the workload's shape on the accounted backend over
// qualityInputs inputs drawn from seed and returns each one's inertia
// over the centralized baseline's. The twin check holds the real-crypto
// disclosure to the accounted one, so the ratios are the workload's.
func (w simWorkload) inertiaRatios(seed int64) ([]float64, error) {
	var ratios []float64
	for i := 1; i <= w.qualityInputs; i++ {
		s := seed*1000 + int64(i)
		series, err := w.series(s)
		if err != nil {
			return nil, err
		}
		cfg := w.config(s, len(series[0]))
		cfg.Backend = chiaroscuro.BackendAccounted
		res, err := chiaroscuro.Cluster(series, cfg)
		if err != nil {
			return nil, err
		}
		base, err := chiaroscuro.CentralizedKMeans(series, cfg.K, cfg.Iterations, s, cfg.InitialCentroids)
		if err != nil {
			return nil, err
		}
		ratios = append(ratios, res.Inertia/base.Inertia)
	}
	return ratios, nil
}

// setup times one OpenStream+Close on the workload's series and shape.
func (r *simRun) setup() (time.Duration, error) {
	cfg := streamConfig(r.cfg)
	start := time.Now()
	s, err := chiaroscuro.OpenStream(r.series, cfg)
	d := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("OpenStream: %w", err)
	}
	s.Close()
	return d, nil
}

// cluster runs Cluster once, measured. runErr is a program error: the
// run's participant-iterations all count as failed. checkErr is a
// failed output check.
func (r *simRun) cluster(tr *tracer, parent int) (res *chiaroscuro.Result, c cost, runErr, checkErr error) {
	c, runErr = measure(func() error {
		return tr.do("chiaroscuro.Cluster", parent, func() error {
			var err error
			res, err = chiaroscuro.Cluster(r.series, r.cfg)
			return err
		})
	})
	pi := r.w.n * r.cfg.Iterations
	r.attempted += pi
	if runErr != nil {
		r.failed += pi
		return nil, c, runErr, nil
	}
	r.failed += min(pi, res.DecryptFailures+(r.w.n-res.Completed)*r.cfg.Iterations)
	if r.w.twin {
		if checkErr = checkSameDisclosure(res, r.twin); checkErr != nil {
			checkErr = fmt.Errorf("differs from the accounted twin: %w", checkErr)
		}
	} else {
		checkErr = checkAccounted(res, r.w.n, r.cfg.Epsilon)
	}
	if checkErr == nil && r.first != nil {
		if checkErr = checkSameDisclosure(res, r.first); checkErr != nil {
			checkErr = fmt.Errorf("differs from the first run on the same input: %w", checkErr)
		}
	}
	if r.first == nil {
		r.first = res
	}
	return res, c, nil, checkErr
}

// setupSamples is how many OpenStream calls setup_s is the median of.
const setupSamples = 15

// timed is the untraced run: setup samples, then Cluster repeated on
// the same input until the time is up (at least minSamples times).
func (w simWorkload) timed(opt options) (*result, error) {
	r, err := w.prepare(opt.seed, nil, -1)
	if err != nil {
		return nil, err
	}
	ratios, err := w.inertiaRatios(opt.seed)
	if err != nil {
		return nil, fmt.Errorf("quality inputs: %w", err)
	}
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		d, err := r.setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	out := newResult()
	var cs costs
	start := time.Now()
	for i := 0; i < minSamples || time.Since(start) < opt.seconds; i++ {
		_, c, runErr, checkErr := r.cluster(nil, -1)
		if runErr != nil {
			fmt.Printf("%s: run failed: %v\n", w.name, runErr)
			continue
		}
		out.check(w.name, checkErr)
		cs.add(c)
	}
	if r.first == nil {
		return nil, fmt.Errorf("%s: every run failed", w.name)
	}
	out.Attempted, out.Failed = r.attempted, r.failed
	m := out.Metrics
	m.set("run_s", "s", median(cs.wall))
	m.set("setup_s", "s", median(setups))
	m.set("cpu_s", "s", median(cs.cpu))
	m.set("alloc_mb", "MB", median(cs.alloc))
	m.set("rss_peak_mb", "MB", median(cs.peak))
	m.set("bytes_per_participant", "B", float64(r.first.Network.BytesSent)/float64(w.n))
	m.set("inertia_ratio", "ratio", median(append(ratios, r.first.Inertia/r.base.Inertia)))
	m.set("completed_share", "ratio", 1-ratio(float64(r.failed), float64(r.attempted)))
	fmt.Printf("%s: medians of %d Cluster runs and %d OpenStream calls; run_s samples %.3f\n", w.name, len(cs.wall), len(setups), cs.wall)
	return out, nil
}

// traced is the per-layer run: one untraced Cluster for the overhead
// baseline, one traced Cluster with runtime counters around it, the
// core.RunSharded call that supplies the phase split (cross-checked
// against Cluster), and the layer probes.
func (w simWorkload) traced(opt options) (*result, *tracer, error) {
	tr := newTracer()
	root := tr.begin("bench."+w.name, -1)
	r, err := w.prepare(opt.seed, tr, root)
	if err != nil {
		return nil, nil, err
	}
	out := newResult()
	_, plain, runErr, checkErr := r.cluster(nil, -1)
	if runErr != nil {
		return nil, nil, runErr
	}
	out.check(w.name, checkErr)

	if err := tr.do("chiaroscuro.OpenStream", root, func() error {
		_, err := r.setup()
		return err
	}); err != nil {
		return nil, nil, err
	}
	rt0 := readRuntime()
	res, traced, runErr, checkErr := r.cluster(tr, root)
	rt1 := readRuntime()
	if runErr != nil {
		return nil, nil, runErr
	}
	out.check(w.name, checkErr)
	m := out.Metrics
	runtimeLayer(m, rt0, rt1)
	m.set("bench.trace_overhead_s", "s", traced.wall.Seconds()-plain.wall.Seconds())

	var ct *core.Trace
	err = tr.do("core.RunSharded", root, func() error {
		var err error
		ct, err = core.RunSharded(r.series, coreParams(r.cfg))
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core.RunSharded: %w", err)
	}
	if err := checkTraceMatches(ct, res); err != nil {
		out.check(w.name, fmt.Errorf("core.RunSharded disclosure differs from Cluster: %w", err))
	}
	coreLayer(m, ct, w.n)
	prof, err := layerProbes(m, tr, root)
	if err != nil {
		return nil, nil, err
	}
	projectCPU(m, prof, ct.Ops, traced.cpu)
	if _, _, _, err := meshLayers(m, out, opt, tr, root); err != nil {
		return nil, nil, err
	}
	tr.end(root)
	out.Attempted, out.Failed = r.attempted, r.failed
	return out, tr, nil
}
