package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chiaroscuro"
	"chiaroscuro/internal/core"
	"chiaroscuro/internal/transport"
	"chiaroscuro/internal/transport/conformance"
)

// The mesh workload: meshNodes in-process transport nodes, each with its
// own loopback TCP listener and supervised links, on the accounted
// backend with a grace window.
const (
	meshNodes      = 5
	meshK          = 2
	meshIterations = 100
	// meshCheckpointIterations is the length of the traced run's
	// checkpoint probe, which checkpoints every epoch (the daemon's
	// durable default) into the working directory. Every checkpoint is
	// fsynced, so on a disk the probe is kept short.
	meshCheckpointIterations = 2
	// meshEpsilon makes the disclosure noise negligible at five
	// participants, so inertia_ratio measures the protocol's arithmetic
	// rather than the noise draw; the mesh exists to measure transport.
	meshEpsilon      = 1e6
	meshEpochTimeout = 60 * time.Second
	meshGrace        = 30 * time.Second
)

// meshInput is one seed's mesh population, parameters and references.
type meshInput struct {
	data     [][]float64
	params   core.Params
	ref      [][]core.IterationResult // sequential engine, per participant
	refTrace *core.Trace
	base     *chiaroscuro.KMeansResult
	iters    int
	dir      string // checkpoint directory

	attempted, failed int
}

func prepareMesh(opt options, iters int, tr *tracer, parent int) (*meshInput, error) {
	spec := conformance.Spec{
		N: meshNodes, Dataset: "cer", Seed: opt.seed, K: meshK, Iterations: iters,
		EpochTimeout: meshEpochTimeout, Grace: meshGrace,
	}
	in := &meshInput{iters: iters, dir: filepath.Join(opt.work, fmt.Sprintf("mesh-%d", os.Getpid()))}
	err := tr.do("datasets.synthetic", parent, func() error {
		var err error
		in.data, err = spec.Data()
		return err
	})
	if err != nil {
		return nil, err
	}
	in.params = spec.Params()
	in.params.Epsilon = meshEpsilon
	in.params.InitialCentroids = chiaroscuro.LevelInit(meshK, len(in.data[0]))
	err = tr.do("core.RunSequentialHistories", parent, func() error {
		var err error
		in.refTrace, in.ref, err = core.RunSequentialHistories(in.data, in.params)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("sequential reference: %w", err)
	}
	err = tr.do("kmeans.CentralizedKMeans", parent, func() error {
		var err error
		in.base, err = chiaroscuro.CentralizedKMeans(in.data, meshK, iters, opt.seed, in.params.InitialCentroids)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	return in, nil
}

// meshHooks are the Dialer/Listener/Logf hooks of one mesh run. They
// count socket bytes, writes, dials and the last accepted link. With a
// tracer they also time every write and record spans; with checkpoints
// they turn consecutive checkpoint log lines into per-epoch times.
type meshHooks struct {
	tr     *tracer
	parent int
	start  time.Time

	bytes, writes, dials atomic.Int64
	lastAccept           atomic.Int64 // ns after start

	mu       sync.Mutex
	writeMS  []float64
	epochMS  []float64
	lastCkpt map[int]ckptMark
}

type ckptMark struct {
	epoch int
	at    time.Time
}

func (h *meshHooks) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	start := time.Now()
	c, err := net.DialTimeout(network, addr, timeout)
	h.tr.record("transport.Dial", h.parent, start, time.Since(start))
	h.dials.Add(1)
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c, h: h}, nil
}

// logf receives the transport's progress lines; only checkpoint lines
// are kept, as per-node epoch timestamps.
func (h *meshHooks) logf(format string, args ...any) {
	now := time.Now()
	h.tr.record("transport.Logf", h.parent, now, 0)
	if !strings.Contains(format, "checkpointed epoch") || len(args) < 2 {
		return
	}
	id, ok1 := args[0].(int)
	epoch, ok2 := args[1].(int)
	if !ok1 || !ok2 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if prev, ok := h.lastCkpt[id]; ok && epoch > prev.epoch {
		ms := float64(now.Sub(prev.at)) / float64(time.Millisecond) / float64(epoch-prev.epoch)
		h.epochMS = append(h.epochMS, ms)
	}
	h.lastCkpt[id] = ckptMark{epoch: epoch, at: now}
}

type countListener struct {
	net.Listener
	h *meshHooks
}

func (l *countListener) Accept() (net.Conn, error) {
	start := time.Now()
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	now := time.Now()
	l.h.tr.record("transport.Accept", l.h.parent, start, now.Sub(start))
	at := int64(now.Sub(l.h.start))
	for {
		last := l.h.lastAccept.Load()
		if at <= last || l.h.lastAccept.CompareAndSwap(last, at) {
			break
		}
	}
	return &countConn{Conn: c, h: l.h}, nil
}

type countConn struct {
	net.Conn
	h *meshHooks
}

func (c *countConn) Write(p []byte) (int, error) {
	if c.h.tr == nil {
		n, err := c.Conn.Write(p)
		c.h.bytes.Add(int64(n))
		c.h.writes.Add(1)
		return n, err
	}
	start := time.Now()
	n, err := c.Conn.Write(p)
	d := time.Since(start)
	c.h.bytes.Add(int64(n))
	c.h.writes.Add(1)
	c.h.tr.record("transport.Write", c.h.parent, start, d)
	c.h.mu.Lock()
	c.h.writeMS = append(c.h.writeMS, float64(d)/float64(time.Millisecond))
	c.h.mu.Unlock()
	return n, err
}

// meshOutcome is one mesh run: its cost, the hooks' counts and every
// node's history or error.
type meshOutcome struct {
	cost      cost
	setup     time.Duration
	hooks     *meshHooks
	histories [][]core.IterationResult
	ckptBytes []float64
	checkErr  error
	// rt brackets the run with runtime counters.
	rt [2]runtimeCounters
}

// run runs the whole mesh once, every node a transport.Run in its own
// goroutine; with checkpoint set every node checkpoints every epoch. A
// node that errors counts all its participant-iterations as failed.
func (in *meshInput) run(checkpoint bool, tr *tracer, parent int) (*meshOutcome, error) {
	// Every node gets its listener before any node starts, so the peer
	// list is known up front and mesh formation waits on no polling.
	lns := make([]net.Listener, meshNodes)
	peers := make([]string, meshNodes)
	for id := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		lns[id], peers[id] = ln, ln.Addr().String()
	}
	if checkpoint {
		if err := os.RemoveAll(in.dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(in.dir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(in.dir)
	}
	h := &meshHooks{tr: tr, parent: parent, lastCkpt: map[int]ckptMark{}}
	o := &meshOutcome{hooks: h, histories: make([][]core.IterationResult, meshNodes)}
	errs := make([]error, meshNodes)
	o.cost, _ = measure(func() error {
		o.rt[0] = readRuntime()
		defer func() { o.rt[1] = readRuntime() }()
		h.start = time.Now()
		var wg sync.WaitGroup
		for id := 0; id < meshNodes; id++ {
			cfg := transport.Config{
				ID: id, Population: meshNodes, Listen: peers[id], Peers: peers,
				EpochTimeout: meshEpochTimeout, Grace: meshGrace,
				Dialer:   h.dial,
				Listener: func(string, string) (net.Listener, error) { return &countListener{Listener: lns[id], h: h}, nil },
			}
			if checkpoint {
				cfg.CheckpointDir, cfg.Logf = in.dir, h.logf
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				sid := tr.begin("transport.Run", parent)
				defer tr.end(sid)
				o.histories[id], errs[id] = transport.Run(cfg, in.data, in.params)
			}()
		}
		wg.Wait()
		return nil
	})
	o.setup = time.Duration(h.lastAccept.Load())

	var failedNodes []string
	for id, err := range errs {
		in.attempted += in.iters
		if err != nil {
			in.failed += in.iters
			failedNodes = append(failedNodes, fmt.Sprintf("node %d: %v", id, err))
			continue
		}
		missing := in.iters - len(o.histories[id])
		for _, it := range o.histories[id] {
			if it.DecryptFailed {
				missing++
			}
		}
		in.failed += min(in.iters, missing)
	}
	if len(failedNodes) > 0 {
		return o, fmt.Errorf("mesh run failed: %s", strings.Join(failedNodes, "; "))
	}
	o.checkErr = checkMesh(o.histories, in.ref)
	if checkpoint {
		for id := 0; id < meshNodes; id++ {
			st, err := os.Stat(filepath.Join(in.dir, fmt.Sprintf("%d.ckpt", id)))
			if err != nil {
				return nil, fmt.Errorf("final checkpoint: %w", err)
			}
			o.ckptBytes = append(o.ckptBytes, float64(st.Size()))
		}
	}
	return o, nil
}

// meshTimed is the untraced mesh run: the whole mesh repeated until the
// time is up (at least minSamples times).
func meshTimed(opt options) (*result, error) {
	in, err := prepareMesh(opt, meshIterations, nil, -1)
	if err != nil {
		return nil, err
	}
	out := newResult()
	var cs costs
	var setups, bytes []float64
	start := time.Now()
	for i := 0; i < minSamples || time.Since(start) < opt.seconds; i++ {
		o, err := in.run(false, nil, -1)
		if err != nil {
			fmt.Printf("mesh: %v\n", err)
			continue
		}
		out.check("mesh", o.checkErr)
		cs.add(o.cost)
		setups = append(setups, o.setup.Seconds())
		bytes = append(bytes, float64(o.hooks.bytes.Load())/meshNodes)
	}
	if len(cs.wall) == 0 {
		return nil, fmt.Errorf("mesh: every run failed")
	}
	out.Attempted, out.Failed = in.attempted, in.failed
	m := out.Metrics
	m.set("run_s", "s", median(cs.wall))
	m.set("setup_s", "s", median(setups))
	m.set("cpu_s", "s", median(cs.cpu))
	m.set("alloc_mb", "MB", median(cs.alloc))
	m.set("rss_peak_mb", "MB", median(cs.peak))
	m.set("bytes_per_participant", "B", median(bytes))
	// The output check holds every node's history to the reference's, so
	// the reference's inertia is the mesh's.
	m.set("inertia_ratio", "ratio", in.refTrace.Inertia/in.base.Inertia)
	m.set("completed_share", "ratio", 1-ratio(float64(in.failed), float64(in.attempted)))
	fmt.Printf("mesh: medians of %d runs of %d nodes; run_s samples %.3f\n", len(cs.wall), meshNodes, cs.wall)
	return out, nil
}

// meshLayers runs the transport probe: the mesh untraced (the overhead
// baseline) and traced, then the short checkpoint probe with and
// without checkpoints. It reports the transport.* metrics and returns
// the traced run and its untraced baseline.
func meshLayers(m metricSet, out *result, opt options, tr *tracer, parent int) (in *meshInput, plain, traced *meshOutcome, err error) {
	if in, err = prepareMesh(opt, meshIterations, tr, parent); err != nil {
		return nil, nil, nil, err
	}
	short, err := prepareMesh(opt, meshCheckpointIterations, tr, parent)
	if err != nil {
		return nil, nil, nil, err
	}
	runs := make([]*meshOutcome, 4)
	for i, mode := range []struct {
		in           *meshInput
		ckpt, traced bool
	}{{in, false, false}, {in, false, true}, {short, true, false}, {short, false, false}} {
		var t *tracer
		if mode.traced {
			t = tr
		}
		id := tr.begin(fmt.Sprintf("bench.mesh(iterations=%d,checkpoint=%v,traced=%v)", mode.in.iters, mode.ckpt, mode.traced), parent)
		runs[i], err = mode.in.run(mode.ckpt, t, id)
		tr.end(id)
		if err != nil {
			return nil, nil, nil, err
		}
		out.check("mesh", runs[i].checkErr)
	}
	plain, traced = runs[0], runs[1]
	ckpt, noCkpt := runs[2], runs[3]
	h := traced.hooks
	epochs := float64(in.refTrace.CyclesRun)
	m.set("transport.epoch_ms.p50", "ms", quantile(ckpt.hooks.epochMS, 0.5))
	m.set("transport.epoch_ms.p99", "ms", quantile(ckpt.hooks.epochMS, 0.99))
	m.set("transport.checkpoint_share", "ratio", 1-noCkpt.cost.wall.Seconds()/ckpt.cost.wall.Seconds())
	m.set("transport.checkpoint_bytes", "B", median(ckpt.ckptBytes))
	m.set("transport.bytes_written_per_epoch", "B", float64(h.bytes.Load())/meshNodes/epochs)
	m.set("transport.writes_per_epoch", "count", float64(h.writes.Load())/meshNodes/epochs)
	m.set("transport.write_ms", "ms", median(h.writeMS))
	m.set("transport.dials", "count", float64(h.dials.Load()))
	fmt.Printf("mesh probe: %d writes traced; checkpoint probe: %d epoch samples over %d iterations\n",
		len(h.writeMS), len(ckpt.hooks.epochMS), short.iters)
	return in, plain, traced, nil
}

// meshTraced is the mesh workload's per-layer run: the transport probe,
// runtime counters around its traced run, and the engine layers from a
// core.RunSharded run of the same parameters, whose disclosure must match
// the mesh's.
func meshTraced(opt options) (*result, *tracer, error) {
	out := newResult()
	m := out.Metrics
	tr := newTracer()
	root := tr.begin("bench.mesh", -1)
	in, plain, traced, err := meshLayers(m, out, opt, tr, root)
	if err != nil {
		return nil, nil, err
	}
	runtimeLayer(m, traced.rt[0], traced.rt[1])
	m.set("bench.trace_overhead_s", "s", traced.cost.wall.Seconds()-plain.cost.wall.Seconds())

	var ct *core.Trace
	err = tr.do("core.RunSharded", root, func() error {
		var err error
		ct, err = core.RunSharded(in.data, in.params)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core.RunSharded: %w", err)
	}
	final := traced.histories[0][len(traced.histories[0])-1].PerturbedCentroids
	if err := equalMatrix(ct.FinalCentroids, final); err != nil {
		out.check("mesh", fmt.Errorf("core.RunSharded disclosure differs from the mesh: %w", err))
	}
	coreLayer(m, ct, meshNodes)
	prof, err := layerProbes(m, tr, root)
	if err != nil {
		return nil, nil, err
	}
	projectCPU(m, prof, ct.Ops, traced.cost.cpu)
	tr.end(root)
	out.Attempted, out.Failed = in.attempted, in.failed
	return out, tr, nil
}
