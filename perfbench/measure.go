package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentMB is the memory the Go runtime holds from the OS: everything
// it mapped minus what it released back.
func residentMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// memSampleEvery is the resident-memory sampling period while a
// measured call runs.
const memSampleEvery = 2 * time.Millisecond

// cost is what one measured call consumed: wall clock, process CPU,
// heap bytes allocated and peak resident memory.
type cost struct {
	wall, cpu       time.Duration
	allocMB, peakMB float64
}

// measure runs f after a full collection, so every sample starts from
// the same heap state, and returns its cost. A sampler goroutine tracks
// the peak resident memory while f runs: the process-lifetime peak
// would be the maximum over every sample, and a single late collection
// in any of them would move it.
func measure(f func() error) (cost, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stop, peak := make(chan struct{}), make(chan float64)
	go func() {
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		p := residentMB()
		for {
			select {
			case <-tick.C:
				p = max(p, residentMB())
			case <-stop:
				peak <- max(p, residentMB())
				return
			}
		}
	}()
	cpu0, t0 := cpuTime(), time.Now()
	err := f()
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	close(stop)
	c := cost{wall: wall, cpu: cpu, peakMB: <-peak}
	runtime.ReadMemStats(&after)
	c.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return c, err
}

// costs collects the per-sample costs of one timed loop.
type costs struct{ wall, cpu, alloc, peak []float64 }

func (c *costs) add(x cost) {
	c.wall = append(c.wall, x.wall.Seconds())
	c.cpu = append(c.cpu, x.cpu.Seconds())
	c.alloc = append(c.alloc, x.allocMB)
	c.peak = append(c.peak, x.peakMB)
}

// runtimeCounters are the runtime/metrics counters the traced run
// differences around a call.
type runtimeCounters struct{ gcCPU, userCPU, gcCycles, allocObjects float64 }

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeCounters{gcCPU: v(0), userCPU: v(1), gcCycles: v(2), allocObjects: v(3)}
}

// runtimeLayer reports the runtime's share of the work between two
// readings: GC CPU over user+GC CPU, collections, and heap objects.
func runtimeLayer(m metricSet, a, b runtimeCounters) {
	gc, user := b.gcCPU-a.gcCPU, b.userCPU-a.userCPU
	m.set("runtime.gc_cpu_share", "ratio", ratio(gc, user+gc))
	m.set("runtime.gc_cycles", "count", b.gcCycles-a.gcCycles)
	m.set("runtime.alloc_objects", "count", b.allocObjects-a.allocObjects)
}

// ratio is a/b, or 0 when b is 0 (JSON has no NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last line of output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// span is one timed call across a layer boundary, recorded by the
// benchmark around its own calls into the program and inside the
// mesh's socket and log hooks. Parent is the index of the enclosing
// span, -1 at the top.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per hook.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartUS: now, EndUS: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	t.spans[id].EndUS = now
	t.mu.Unlock()
}

// record adds a closed span that started at start and lasted d.
func (t *tracer) record(name string, parent int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0).Microseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartUS: s, EndUS: s + d.Microseconds()})
	t.mu.Unlock()
}

// do runs f inside a span named name.
func (t *tracer) do(name string, parent int, f func() error) error {
	id := t.begin(name, parent)
	defer t.end(id)
	return f()
}

// spanSummary is the per-name aggregate written beside the raw spans:
// how often the boundary was crossed, total time inside it, and self
// time (total minus the time its child spans cover).
type spanSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (t *tracer) summary() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]span, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*spanSummary{}
	var order []string
	for i, s := range t.spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
			order = append(order, s.Name)
		}
		d := s.EndUS - s.StartUS
		sum.Count++
		sum.TotalS += float64(d) / 1e6
		sum.SelfS += float64(d-covered(children[i])) / 1e6
	}
	out := make([]spanSummary, len(order))
	for i, n := range order {
		out[i] = *byName[n]
	}
	return out
}

// covered is the length of the union of the spans' intervals:
// concurrent children (the mesh's nodes) overlap.
func covered(spans []span) int64 {
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.StartUS, b.StartUS) })
	var total, end int64 = 0, -1
	for _, s := range spans {
		start := max(s.StartUS, end)
		if s.EndUS > start {
			total += s.EndUS - start
		}
		end = max(end, s.EndUS)
	}
	return total
}

// write saves the spans and their summary as JSON to path.
func (t *tracer) write(path string) error {
	sum := t.summary()
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(struct {
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{sum, t.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
