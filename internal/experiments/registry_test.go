package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/golden from the single-queue runs")

// TestExperimentRegistry is the behavioural contract of every experiment.
// Each registry entry runs at reduced scale, seed 42, once on the
// single-queue engine and once on the sharded engine. Both runs' rendered
// text and every CSV they write must match testdata/golden/<name>.golden
// byte for byte, and the two results must be deeply equal, which also
// covers the fields neither the text nor the CSVs show. Cross-shard
// interactions travel with at least the lookahead window of simulated
// latency, so parallel execution cannot change a replay. Refresh the
// goldens deliberately with:
//
//	go test ./internal/experiments/ -run ExperimentRegistry -update
func TestExperimentRegistry(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			single := runMasked(t, e, Options{Seed: 42, Reduced: true})
			sharded := runMasked(t, e, Options{Seed: 42, Reduced: true, Shards: 4})

			path := filepath.Join("testdata", "golden", e.Name+".golden")
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(snapshot(t, single)), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			for _, run := range []struct {
				engine string
				res    Result
			}{{"single-queue", single}, {"sharded(4)", sharded}} {
				if got := snapshot(t, run.res); got != string(want) {
					t.Errorf("%s output drifted from %s (run with -update after reviewing the change):\ngot:\n%s\nwant:\n%s",
						run.engine, path, got, want)
				}
			}
			if !reflect.DeepEqual(single, sharded) {
				t.Errorf("sharded result diverged from single-queue:\n%+v\nvs\n%+v", single, sharded)
			}
		})
	}
}

// runMasked runs e and zeroes EX-9's wall-clock readings (its Wall s,
// Inv/s and Speedup columns), the only values in any result that are not
// a function of the seed.
func runMasked(t *testing.T, e Experiment, o Options) Result {
	t.Helper()
	res, err := e.Run(o)
	if err != nil {
		t.Fatalf("%s %+v: %v", e.Name, o, err)
	}
	if r, ok := res.(EX9Result); ok {
		r.Cells = append([]EX9Cell(nil), r.Cells...)
		for i := range r.Cells {
			r.Cells[i].WallSeconds, r.Cells[i].InvPerSec, r.Cells[i].Speedup = 0, 0, 0
		}
		res = r
	}
	return res
}

// snapshot is a result's golden form: its rendered text, then each CSV
// file it writes, in name order.
func snapshot(t *testing.T, res Result) string {
	t.Helper()
	dir := t.TempDir()
	if err := res.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(res.Render())
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "---- %s ----\n%s", f.Name(), data)
	}
	return b.String()
}
