package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkFile is the repository's BENCHMARK.json, as far as the self-test
// reads it.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads()) {
		t.Errorf("BENCHMARK.json lists workloads %v, the code %s", names, workloadNames())
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the code %d and %d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range f.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s [%s], code %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for i, m := range f.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], code %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestWorkloadsReducedScale runs every workload, untraced and traced, at
// reduced scale: every metric BENCHMARK.json names must be emitted with its
// unit, every output must check out, and the traced run's spans must nest.
func TestWorkloadsReducedScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds each")
	}
	f := readBenchmarkFile(t)
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			name := w.name + map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				cfg := config{seed: 1, seconds: 2 * time.Second, trace: trace, setupReps: 1, meshInvocations: 2000}
				res, tr, err := w.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.complete(trace); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				want := f.EndToEnd
				if trace {
					want = f.PerLayer
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s [%s]: got %+v (reported %v)", m.Name, m.Unit, got, ok)
					}
				}
				if (tr != nil) != trace {
					t.Fatalf("traced %v, got tracer %v", trace, tr != nil)
				}
				if tr == nil {
					return
				}
				if len(tr.spans) == 0 {
					t.Fatal("traced run recorded no spans")
				}
				if err := tr.check(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

func TestTracerCheckRejectsBadNesting(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for _, tc := range []struct {
		name  string
		build func(tr *tracer)
		ok    bool
	}{
		{"nested", func(tr *tracer) {
			root := tr.add("request", "r1", 0, at(0), at(10))
			tr.add("child", "r1", root, at(2), at(8))
		}, true},
		{"child outlives parent", func(tr *tracer) {
			root := tr.add("request", "r1", 0, at(0), at(10))
			tr.add("child", "r1", root, at(2), at(11))
		}, false},
		{"child starts first", func(tr *tracer) {
			root := tr.add("request", "r1", 0, at(1), at(10))
			tr.add("child", "r1", root, at(0), at(5))
		}, false},
		{"other request", func(tr *tracer) {
			root := tr.add("request", "r1", 0, at(0), at(10))
			tr.add("child", "r2", root, at(2), at(8))
		}, false},
	} {
		tr := &tracer{epoch: t0}
		tc.build(tr)
		if err := tr.check(); (err == nil) != tc.ok {
			t.Errorf("%s: check() = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{epoch: t0}
	root := tr.add("request", "r1", 0, at(0), at(10))
	tr.add("a", "r1", root, at(1), at(4))
	tr.add("b", "r1", root, at(3), at(6)) // overlaps a: together they cover 5 ms
	self := tr.selfTimes()
	if want := 5 * time.Millisecond; self[0] != want {
		t.Errorf("root self time %v, want %v", self[0], want)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}
