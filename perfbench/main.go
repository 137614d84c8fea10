// Command perfbench is the repository benchmark. One invocation runs one
// seeded workload through the public API of the repository's packages,
// checks that every output is correct, and prints its metrics as the last
// line of standard output:
//
//	perfbench --workload tune-inproc --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics of BENCHMARK.json;
// with --trace 1 the run repeats the timed phase with spans recorded at every
// wrapped layer boundary and prints the per-layer metrics instead. README.md
// explains why each workload exists and which end-to-end metric each layer
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is what every workload receives: the seed that generates its
// inputs, the length of the timed phase, and where it may write.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	// short shrinks every size (set-up repetitions, corpus, trials) so the
	// self-tests can run each workload in a few seconds. The timed phase
	// still honours seconds.
	short bool
	// workDir holds node stores and the written span file.
	workDir string
	out     io.Writer
}

// nproc is the client and simulator parallelism every workload uses.
func nproc() int { return runtime.NumCPU() }

// logf prints one human-readable line ahead of the JSON result.
func (c *config) logf(format string, args ...any) {
	fmt.Fprintf(c.out, format+"\n", args...)
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: both metric sets (the caller keeps
// the one --trace selects), the candidate ledger and the failed checks.
type outcome struct {
	endToEnd  map[string]metric
	perLayer  map[string]metric
	attempted int64
	failed    int64
	problems  []string
}

// endToEndUnits and perLayerUnits list every metric a run prints, with its
// unit; BENCHMARK.json declares the same names (a test keeps them equal).
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"cand_per_s":      "1/s",
	"sim_instr_per_s": "1/s",
	"cpu_ms_per_cand": "ms",
	"ok_ratio":        "ratio",
}

var perLayerUnits = map[string]string{
	"core.dataset_s":              "s",
	"predictor.fit_s":             "s",
	"ansor.propose_s":             "s/cand",
	"lower.build_s":               "s/cand",
	"lower.build_calls":           "count",
	"runner.run_s":                "s/cand",
	"predictor.predict_s":         "s/cand",
	"sim.instr_per_s":             "1/s",
	"sim.events_per_instr":        "count",
	"sim.events_per_instr_max":    "count",
	"hw.validate_s":               "s/cand",
	"cache.l1d_miss_ratio":        "ratio",
	"cache.l2_miss_ratio":         "ratio",
	"predictor.rtop1_pct":         "%",
	"ansor.tuned_best_us":         "us",
	"service.key_us_per_cand":     "us",
	"service.transport_ms":        "ms",
	"service.router_self_ms":      "ms",
	"service.node_handler_ms":     "ms",
	"service.wire_bytes_per_cand": "B",
	"service.allocs_per_cand":     "count",
	"service.node_hit_batch_ms":   "ms",
	"service.node_miss_batch_ms":  "ms",
	"service.miss_ratio":          "ratio",
	"service.disk_hit_ratio":      "ratio",
	"service.evictions":           "count",
	"store.bytes_per_miss":        "B",
	"service.reject_ratio":        "ratio",
	"go.gc_pause_ms":              "ms",
	"go.heap_live_mb":             "MB",
	"gen.late_p99_ms":             "ms",
	"gen.inflight_max":            "count",
	"client.batch_p50_ms":         "ms",
	"client.batch_tail_ms":        "ms",
	"trace.unattributed_share":    "ratio",
	"trace.overhead_ratio":        "ratio",
}

func (o *outcome) e2e(name string, v float64) { put(o.endToEnd, endToEndUnits, name, v) }

func (o *outcome) layer(name string, v float64) { put(o.perLayer, perLayerUnits, name, v) }

func put(m map[string]metric, units map[string]string, name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

// complete fills the metrics a workload did not measure: a layer that is
// not on the workload's path reads 0. Every end-to-end metric must have
// been measured.
func (o *outcome) complete(trace bool) {
	for name := range endToEndUnits {
		_, ok := o.endToEnd[name]
		o.check(ok, "end-to-end metric %s was not measured", name)
	}
	if trace {
		for name := range perLayerUnits {
			if _, ok := o.perLayer[name]; !ok {
				o.layer(name, 0)
			}
		}
	}
}

// check records a failed correctness check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func newOutcome() *outcome {
	return &outcome{endToEnd: map[string]metric{}, perLayer: map[string]metric{}}
}

type workloadFunc func(cfg *config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"tune-inproc":      runTune,
	"serve-hit-http":   runHit,
	"serve-mixed-open": runMixed,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags, runs the workload and prints the result. It returns
// 0 on success, 1 when a correctness check failed (the result line is still
// printed) and 2 when the workload could not run at all.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 25, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints per-layer metrics")
	short := fs.Bool("short", false, "shrink every size (self-tests)")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, names)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace == 1, short: *short,
		workDir: *workDir, out: stdout}
	start := time.Now()
	o, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	cfg.logf("run wall %.1f s", time.Since(start).Seconds())
	o.complete(cfg.trace)
	res := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.endToEnd}
	if cfg.trace {
		res.Metrics = o.perLayer
	}
	if res.Attempted < 1 {
		o.problems = append(o.problems, "no candidate was attempted")
		res.Correct = false
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
