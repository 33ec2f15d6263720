// Package experiments reproduces the paper's evaluation (§3.5: Table 1 and
// EX-1..EX-5) and the extensions EX-6..EX-11 on the simulated sky. Each
// experiment builds its own deterministic world from a seed, runs its
// procedure, and returns a Result: paper-style text from Render and the
// datasets behind it from WriteCSV.
//
// All() is the registry. skybench, the golden and shard-invariance test
// (TestExperimentRegistry), and `make smoke` iterate it. Every Run*
// function also accepts its own config, whose zero value is the full
// paper-scale procedure; the Reduced() presets cut scale for benchmarks.
package experiments

import (
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
	"skyfaas/internal/sampler"
)

// defaultEpoch starts every experiment on a Monday midnight UTC.
var defaultEpoch = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)

// EX4Zones are the five zones the paper tracked daily for two weeks.
func EX4Zones() []string {
	return []string{"us-west-1a", "us-west-1b", "sa-east-1a", "eu-north-1a", "ca-central-1a"}
}

// EX3Zones are the eleven zones of the progressive-sampling evaluation.
func EX3Zones() []string {
	return []string{
		"ca-central-1a", "eu-north-1a", "ap-northeast-1a", "sa-east-1a",
		"eu-central-1a", "ap-southeast-2a", "us-west-1a", "us-west-1b",
		"us-east-2a", "us-east-2b", "us-east-2c",
	}
}

// reducedSampler is the benchmark-scale sampler that the Reduced presets of
// EX-1 and EX-3..EX-7 and the ablations share.
func reducedSampler() sampler.Config {
	return sampler.Config{Endpoints: 60, PollSize: 222, Branch: 10, InterPollPause: 500 * time.Millisecond}
}

// newRuntime builds an experiment world. Experiments only need the minimal
// mesh (they pick 2 GB endpoints), which keeps construction fast. shards
// selects the engine: 0/1 single-queue, N > 1 sharded (replay is identical
// either way; the determinism tests assert it).
func newRuntime(seed uint64, horizonDays int, samplerCfg sampler.Config, shards int) (*core.Runtime, error) {
	return core.New(core.Config{
		Seed:       seed,
		Epoch:      defaultEpoch,
		SamplerCfg: samplerCfg,
		CloudOpts:  cloudsim.Options{HorizonDays: horizonDays},
		SkipMesh:   true,
		Shards:     shards,
	})
}
