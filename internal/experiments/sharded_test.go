package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestShardedExperimentsMatchSingleQueue checks shard invariance at a
// second seed, beside the seed-42 goldens of TestExperimentRegistry, for
// the experiments that inject faults (EX-6), refresh on drift (EX-7) and
// shed load at the admission gate (EX-8). Each registry entry runs on the
// single-queue engine and twice on the sharded one: all three results must
// be deeply equal, so neither the engine nor parallel shard scheduling can
// leak into a replay.
func TestShardedExperimentsMatchSingleQueue(t *testing.T) {
	const shards = 4
	want := map[string]bool{"ex6": true, "ex7": true, "ex8": true}
	ran := 0
	for _, e := range All() {
		if !want[e.Name] {
			continue
		}
		ran++
		e := e
		t.Run(strings.ToUpper(e.Name), func(t *testing.T) {
			t.Parallel()
			run := func(n int) Result {
				res, err := e.Run(Options{Seed: 5, Reduced: true, Shards: n})
				if err != nil {
					t.Fatalf("%d shards: %v", n, err)
				}
				return res
			}
			single, sharded, again := run(0), run(shards), run(shards)
			if !reflect.DeepEqual(single, sharded) {
				t.Errorf("sharded result diverged from single-queue\n--- single-queue ---\n%s\n--- sharded(%d) ---\n%s",
					single.Render(), shards, sharded.Render())
			}
			if !reflect.DeepEqual(sharded, again) {
				t.Error("two sharded runs of the same config diverged")
			}
		})
	}
	if ran != len(want) {
		t.Fatalf("registry has %d of the %d experiments this test covers", ran, len(want))
	}
}
