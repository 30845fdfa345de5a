// Command perfbench is the repository benchmark. One run executes one
// workload from one process at a pinned worker width, checks the
// program's outputs, and prints one JSON object as the last line of
// standard output: the end-to-end metrics, or with --trace 1 the
// per-layer metrics, each by the name and unit BENCHMARK.json declares.
//
//	bash perfbench/run.sh --workload casestudy --seed 1 --seconds 15 --trace 0
//
// Workloads (README.md explains why each exists):
//
//   - casestudy: flow.CaseStudy cold, 2D baseline vs iso-footprint M3D.
//   - yield: Monte Carlo timing yield over the case-study M3D design.
//   - service: closed-loop mixed traffic against an in-process serve.Server.
//
// Every layer is measured from outside, through the program's public
// calls and its existing spans and counters; this package adds no
// instrumentation to the program.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// width is the worker width every run is pinned to: GOMAXPROCS, and with
// it the program's default pool width. It equals nproc on the 2-core host
// the benchmark was defined on. BENCHMARK.json has a fixed key set, so
// the width is recorded here and printed with every result.
const width = 2

// Seeds. The workload seed drives every generated input: the case-study
// placement seed, the yield corner seeds and the service request picks.
const (
	// defaultSeed reproduces the reference m3dflow case-study run
	// (placement seed 1).
	defaultSeed = 1
	// heldOutSeed is never used while tuning the benchmark or a change;
	// it must pass every output check too.
	heldOutSeed = 7
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// report is what a workload hands back to main.
type report struct {
	attempted, failed int
	// e2e holds end-to-end metrics (untraced runs), layer the per-layer
	// metrics (traced runs), both keyed by BENCHMARK.json name.
	e2e, layer map[string]float64
	// classes counts attempts and failures per request class, for the
	// summary on standard error.
	classes []classCount
}

type classCount struct {
	name              string
	attempted, failed int
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed operation with its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

var workloads = map[string]func(config, *tracer) (*report, error){
	"casestudy": runCaseStudy,
	"yield":     runYield,
	"service":   runService,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: casestudy, yield or service")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	flag.Float64Var(&seconds, "seconds", 15, "seconds of measured work")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	body, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1

	// Pin the host: the environment must not choose the program's path.
	os.Unsetenv("M3D_WORKERS")
	os.Unsetenv("M3D_CACHE_CAP")
	runtime.GOMAXPROCS(width)

	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	host := hostRecord(cfg)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	rep, err := body(cfg, tr)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path, host); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", tr.len(), path)
	} else {
		rep.e2e["peak_rss_mb"] = peakRSSMB()
	}

	want, have := spec.EndToEnd, rep.e2e
	if cfg.trace {
		want, have = spec.PerLayer, rep.layer
	}
	metrics, err := collect(want, have, !cfg.trace)
	if err != nil {
		return err
	}
	classes := rep.classes
	if len(classes) == 0 {
		classes = []classCount{{cfg.workload, rep.attempted, rep.failed}}
	}
	for _, c := range classes {
		fmt.Fprintf(os.Stderr, "perfbench: %-10s attempted %6d failed %d\n", c.name, c.attempted, c.failed)
	}
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// metricSpec is one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect maps the declared metrics onto the measured values. Every
// workload prints every declared metric. An end-to-end metric must be
// measured by every workload; a per-layer metric of a layer the
// workload does not exercise in its timed region reads 0. A measured
// name that is not declared is a bug in this package.
func collect(want []metricSpec, have map[string]float64, required bool) (map[string]metric, error) {
	out := make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := have[m.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %q was not measured", m.Name)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for name := range have {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// hostRecord identifies the code and host a result was measured on.
func hostRecord(cfg config) map[string]any {
	commit := "none" // the benchmark checkout need not be a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds.Seconds(),
		"trace":    cfg.trace,
		"go":       runtime.Version(),
		"width":    width,
		"nproc":    runtime.NumCPU(),
		"commit":   commit,
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: fall back to the memory the Go runtime holds.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// toSeconds converts durations to float seconds.
func toSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidates tail reports, highest last.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.5, 99.9, 99.99}

// tail returns the highest percentile of xs with at least ten samples
// beyond it, and its nearest-rank value. With fewer than twenty samples
// no percentile qualifies and tail reports the maximum (percentile 100).
func tail(xs []float64) (pct, v float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	pct, v = 100, s[n-1]
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n))) // samples at or below it
		if rank < 1 || n-rank < 10 {
			break
		}
		pct, v = p, s[rank-1]
	}
	return pct, v
}
