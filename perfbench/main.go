// Command perfbench is the skyfaas benchmark. One run drives one workload
// for a fixed time, checks every output, and prints as the last line of its
// standard output one JSON object:
//
//	{"correct": true, "attempted": 1540, "failed": 0, "metrics": {"latency_p50_ms": {"value": 13.2, "unit": "ms"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the run
// is a separate traced run of the same workload and seed that reports the
// per-layer ones and writes its spans under --outdir. BENCHMARK.json at the
// repository root lists both sets; README.md in this directory defines each
// metric. run.sh builds the binary from the checkout and runs it:
//
//	bash perfbench/run.sh --workload burst-small --seed 1 --seconds 20 --trace 0
//
// Exit status: 0 when every output checked out, 1 when an output check
// failed (the result line is still printed, with "correct": false), 2 when
// the run could not start or set up (no result line).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// setupReps is how many times a burst workload builds, characterizes
	// and warms a server; setup_s is the median.
	setupReps int
	// meshInvocations is the invocation count of one mesh replay round.
	meshInvocations int
}

// workloadDef is one named traffic shape.
type workloadDef struct {
	name string
	run  func(cfg config) (*result, *tracer, error)
}

func workloads() []workloadDef {
	return []workloadDef{
		{name: "burst-small", run: burstSmall.run},
		{name: "burst-fanout", run: burstFanout.run},
		{name: "mesh-sharded", run: runMesh},
	}
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: burst-small, burst-fanout or mesh-sharded")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measured run time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	outdir := fs.String("outdir", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{
		seed:            *seed,
		seconds:         time.Duration(*seconds) * time.Second,
		trace:           *trace == 1,
		setupReps:       3,
		meshInvocations: meshInvocations,
	}
	fp := hostFingerprint(w.name, cfg)
	res, tr, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	if tr != nil {
		if err := tr.check(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: spans do not nest: %v\n", w.name, err)
			res.Correct = false
		}
		path, err := tr.write(*outdir, w.name, fp)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
		tr.summarize(stderr)
	}
	if err := res.complete(cfg.trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]fingerprint{"fingerprint": fp}); err != nil {
		return 2
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// fingerprint names the host and settings a result was measured with, so a
// host change is never read as a regression.
type fingerprint struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	CPUModel   string  `json:"cpuModel"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	Speedup    float64 `json:"skydSpeedup"`
}

func hostFingerprint(name string, cfg config) fingerprint {
	return fingerprint{
		Workload:   name,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds.Seconds(),
		Trace:      cfg.trace,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Speedup:    skydSpeedup,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result {
	return &result{Correct: true, Metrics: make(map[string]metric)}
}

// set records a metric under its declared unit. An undeclared name is a bug
// in the benchmark, not a property of the run.
func (r *result) set(name string, v float64) {
	unit, ok := unitOf(name)
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// complete checks that the run reported exactly its metric set. A per-layer
// metric of a layer the workload does not cross reads 0.
func (r *result) complete(trace bool) error {
	want := endToEnd
	if trace {
		want = perLayer
		for _, m := range perLayer {
			if _, ok := r.Metrics[m.name]; !ok {
				r.set(m.name, 0)
			}
		}
	}
	if len(r.Metrics) != len(want) {
		var got []string
		for name := range r.Metrics {
			got = append(got, name)
		}
		sort.Strings(got)
		return fmt.Errorf("reported metrics %v, want the %d declared ones", got, len(want))
	}
	for _, m := range want {
		if _, ok := r.Metrics[m.name]; !ok {
			return fmt.Errorf("metric %s not reported", m.name)
		}
	}
	return nil
}
