// Command perfbench is the h2ds benchmark: one command that runs a named
// workload against the real public entry points (the api HTTP mux over
// loopback, cluster.Router, registry, core.Build and solver), checks every
// output for correctness, and prints every metric by name with its unit.
//
//	bash perfbench/run.sh --workload serve-normal --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it wraps each call into a layer's public function with an
// in-memory span, writes the spans out at the end, and prints the per-layer
// metrics instead. The last line of standard output is always one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	outDir   string // build/trace output directory inside the checkout

	// corrupt flips one bit of the first answer the correctness gate sees,
	// so the self-test can prove the gates fire. Never set by the command.
	corrupt bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*outcome, error){
	"serve-normal": runServeNormal,
	"solve-hybrid": runSolveHybrid,
	"tenant-churn": runTenantChurn,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: serve-normal, solve-hybrid or tenant-churn")
		seed     = flag.Int64("seed", 1, "workload seed: points, vectors and schedules derive from it")
		seconds  = flag.Float64("seconds", 15, "measured window per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out      = flag.String("out", ".bench_build/run", "directory for trace files and spill files")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloadNames())
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive\n")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		sz: scales["full"], outDir: *out,
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	oc, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, cfg, oc); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit prints the host metadata, the human-readable detail and metric
// table, writes the trace file, and ends with the result line. It fails
// when the outcome lacks a metric the mode must report: a benchmark bug,
// not a measurement.
func emit(w io.Writer, cfg config, oc *outcome) error {
	specs := e2eMetrics
	if cfg.trace {
		specs = layerMetrics
	}
	res := result{
		Correct:   oc.failed == 0 && len(oc.gateErrs) == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   make(map[string]metric, len(specs)),
	}
	if res.Attempted < 1 {
		return fmt.Errorf("%s attempted no operation", cfg.workload)
	}
	for _, s := range specs {
		v, ok := oc.values[s.name]
		if !ok {
			return fmt.Errorf("%s did not measure %s", cfg.workload, s.name)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}

	meta := hostMeta(cfg)
	mb, _ := json.Marshal(map[string]any{"host": meta, "detail": oc.detail})
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "%s\n", mb)
	for _, e := range oc.gateErrs {
		fmt.Fprintf(w, "GATE FAILED: %s\n", e)
		fmt.Fprintf(os.Stderr, "perfbench: %s: GATE FAILED: %s\n", cfg.workload, e)
	}
	for _, s := range specs {
		fmt.Fprintf(w, "%-28s %16.6g %s\n", s.name, res.Metrics[s.name].Value, s.unit)
	}
	if oc.rec != nil {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := oc.rec.writeFile(path, meta); err != nil {
			return err
		}
		fmt.Fprintf(w, "# spans: %s\n", path)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	return nil
}
