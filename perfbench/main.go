// Command perfbench is the repository benchmark. It runs one workload
// through the program's public entry points (chiaroscuro.Cluster,
// chiaroscuro.OpenStream, transport.Run), checks every output, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics of a separate traced run) as a JSON object on its last line.
//
//	perfbench --workload sim-accounted|sim-dj|mesh --seed N --seconds S --trace 0|1 --work DIR
//
// DIR receives the mesh's rendezvous and checkpoint files and the traced
// run's spans; run.sh points it at the checkout's .bench_build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// minSamples is the least number of timed repetitions in a run, however
// short --seconds is.
const minSamples = 3

// deadline bounds a whole run: a wedged mesh must not outlive it.
const deadline = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string
}

func newResult() *result { return &result{Correct: true, Metrics: metricSet{}} }

// check records a failed output check.
func (r *result) check(workload string, err error) {
	if err != nil {
		r.Correct = false
		fmt.Printf("%s: output check failed: %v\n", workload, err)
	}
}

func main() {
	var opt options
	var secs, trace int
	flag.StringVar(&opt.workload, "workload", "", "sim-accounted, sim-dj or mesh")
	flag.Int64Var(&opt.seed, "seed", 1, "input seed")
	flag.IntVar(&secs, "seconds", 20, "how long the timed loop repeats the workload")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the timed run")
	flag.StringVar(&opt.work, "work", ".bench_build", "directory for run files")
	flag.Parse()
	opt.seconds = time.Duration(secs) * time.Second
	opt.trace = trace == 1
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", opt.workload, deadline)
		os.Exit(3)
	})

	res, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(opt options) (*result, error) {
	var timed func(options) (*result, error)
	var traced func(options) (*result, *tracer, error)
	switch opt.workload {
	case simAccounted.name:
		timed, traced = simAccounted.timed, simAccounted.traced
	case simDJ.name:
		timed, traced = simDJ.timed, simDJ.traced
	case "mesh":
		timed, traced = meshTimed, meshTraced
	default:
		return nil, fmt.Errorf("unknown workload %q (want sim-accounted, sim-dj or mesh)", opt.workload)
	}
	if !opt.trace {
		return timed(opt)
	}
	res, tr, err := traced(opt)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(opt.work, fmt.Sprintf("spans-%s-seed%d.json", opt.workload, opt.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	printPhaseSplit(res.Metrics)
	fmt.Printf("spans written to %s\n", path)
	return res, nil
}

// printPhaseSplit prints each protocol phase's share of the core run's
// wall time, and the cost-model reconciliation with its base.
func printPhaseSplit(m metricSet) {
	a, g, d := m["core.assign_s"].Value, m["core.gossip_s"].Value, m["core.decrypt_s"].Value
	if total := a + g + d; total > 0 {
		fmt.Printf("phase split: assign %.0f%%, gossip %.0f%%, decrypt %.0f%% of %.3f s\n",
			100*a/total, 100*g/total, 100*d/total, total)
	}
	fmt.Printf("cost model: projected %.3f s CPU / measured %.3f s CPU = %.3f\n",
		m["costmodel.projected_cpu_s"].Value, m["costmodel.measured_cpu_s"].Value, m["costmodel.cpu_prediction_ratio"].Value)
}
