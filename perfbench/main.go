// Command perfbench is the repository's benchmark. One run builds one
// workload's inputs from a seed, drives the program for a time budget,
// checks the program's outputs, and prints its metrics: every
// end-to-end metric of BENCHMARK.json when tracing is off, every
// per-layer metric when it is on. The last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload drain --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare -base ../parent -head . -pairs 10
//
// The workloads (see README.md for why each exists):
//
//	drain  100,000-job SyntheticMix on 1,000 nodes, EASY backfill
//	storm  staggered arrivals, conservative backfill, preemption,
//	       time slicing, suspend-to-host, faults and checkpointing
//	serve  the HTTP daemon on loopback, fed open loop
//	lbm    channel flow on a 2-rank GPU cluster and its CPU reference
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metric lists are the single source of the names, units and
// directions it prints.
type benchSpec struct {
	Command    []string                `json:"command"`
	RunSeconds int                     `json:"run_seconds"`
	Workloads  []struct{ Name string } `json:"workloads"`
	EndToEnd   []metricSpec            `json:"end_to_end"`
	PerLayer   []metricSpec            `json:"per_layer"`
}

func loadSpec(dir string) (benchSpec, error) {
	var s benchSpec
	buf, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// runConfig is what every workload receives.
type runConfig struct {
	Seed     int64
	Budget   time.Duration
	Trace    bool
	OutDir   string // where the traced run writes its spans
	Workload string
}

// figure is a workload-specific number printed in the human-readable
// table but not part of the result line.
type figure struct {
	Name, Unit, Better string
	Value              float64
}

// outcome is what a workload run returns.
type outcome struct {
	Attempted, Failed int
	// Metrics holds the contract metrics this run measured, by name.
	Metrics map[string]float64
	// Figures are workload-specific numbers for the table.
	Figures []figure
	// Notes are printed as they are: known defects, reference tables.
	Notes []string
}

func newOutcome() outcome { return outcome{Metrics: map[string]float64{}} }

func (o *outcome) fig(name, unit, better string, v float64) {
	o.Figures = append(o.Figures, figure{name, unit, better, v})
}

var workloads = map[string]func(runConfig) (outcome, error){
	"drain": runDrain,
	"storm": runStorm,
	"serve": runServe,
	"lbm":   runLBM,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: drain, storm, serve or lbm")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "time budget of the measurement")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	out := fs.String("out", ".bench_build", "directory for the traced run's span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	run, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	spec, err := loadSpec(".")
	if err != nil {
		return err
	}
	cfg := runConfig{Seed: *seed, Budget: time.Duration(*seconds * float64(time.Second)),
		Trace: *trace == 1, OutDir: *out, Workload: *name}

	meta := hostMeta(cfg)
	metaJSON, _ := json.Marshal(meta)
	fmt.Printf("# meta %s\n", metaJSON)

	o, err := run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	want := spec.EndToEnd
	if cfg.Trace {
		want = spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	fmt.Printf("# %-34s %14s  %-9s %s\n", "metric", "value", "unit", "better")
	for _, m := range want {
		v, ok := o.Metrics[m.Name]
		switch {
		case ok:
		case cfg.Trace:
			// A layer this workload does not exercise reads zero.
		default:
			return fmt.Errorf("%s did not measure end-to-end metric %s", *name, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", *name, m.Name, v)
		}
		metrics[m.Name] = value{v, m.Unit}
		fmt.Printf("# %-34s %14.6g  %-9s %s\n", m.Name, v, m.Unit, m.Better)
	}
	for _, f := range o.Figures {
		fmt.Printf("# %-34s %14.6g  %-9s %s\n", *name+"."+f.Name, f.Value, f.Unit, f.Better)
	}
	for _, n := range o.Notes {
		fmt.Printf("# %s\n", n)
	}
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.Failed == 0, o.Attempted, o.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

// hostMeta is the host and run description printed before every
// result.
func hostMeta(cfg runConfig) map[string]any {
	return map[string]any{
		"workload":   cfg.Workload,
		"seed":       cfg.Seed,
		"seconds":    cfg.Budget.Seconds(),
		"traced":     cfg.Trace,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit resolves HEAD when the working directory is a git checkout
// and reports "unknown" otherwise.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, r, ok := strings.Cut(line, " "); ok && r == ref {
			return id
		}
	}
	return "unknown"
}

// loop calls iter until the budget is spent: at least least times, then
// again only while one more iteration of the median length so far would
// still end inside the budget.
func loop(budget time.Duration, least int, iter func(i int) error) error {
	start := time.Now()
	var lens []float64
	for i := 0; ; i++ {
		if i >= least && time.Since(start)+time.Duration(median(lens)) > budget {
			return nil
		}
		t0 := time.Now()
		if err := iter(i); err != nil {
			return err
		}
		lens = append(lens, float64(time.Since(t0)))
	}
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
