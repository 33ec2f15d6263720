package experiments

import (
	"skyfaas/internal/tablefmt"
	"skyfaas/internal/workload"
)

// Result is what every experiment returns: paper-style text and the
// datasets behind it.
type Result interface {
	Render() string
	WriteCSV(dir string) error
}

// Options are the knobs every registry entry understands. The zero value
// runs each experiment at paper scale on the single-queue engine.
type Options struct {
	// Seed drives the whole simulation; equal seeds replay exactly.
	Seed uint64
	// Shards selects the engine (0/1 single-queue, N > 1 sharded). EX-9
	// sweeps engine widths itself and ignores it.
	Shards int
	// Reduced applies each experiment's Reduced preset.
	Reduced bool
	// Days overrides EX-4's rounds and EX-5's evaluation days (0 = the
	// preset's). ProfileRuns overrides EX-5's and EX-11's profiling
	// executions per workload per zone (0 = the preset's). Both win over
	// Reduced.
	Days, ProfileRuns int
	// EX6Arms, when non-empty, replaces EX-6's policy ladder.
	EX6Arms []EX6Arm
}

// Experiment is one registry entry.
type Experiment struct {
	Name string
	Run  func(Options) (Result, error)
}

// All is the experiment registry, in run order. skybench, the golden and
// shard-invariance test, and `make smoke` all iterate it, so a new
// experiment registers itself exactly once.
func All() []Experiment {
	return []Experiment{
		{"table1", func(Options) (Result, error) { return table1{}, nil }},
		entry("ex1", RunEX1, func(o Options) EX1Config {
			return preset(EX1Config{Seed: o.Seed, Shards: o.Shards}, o)
		}),
		entry("ex2", RunEX2, func(o Options) EX2Config {
			return preset(EX2Config{Seed: o.Seed, Shards: o.Shards}, o)
		}),
		entry("ex3", RunEX3, func(o Options) EX3Config {
			return preset(EX3Config{Seed: o.Seed, Shards: o.Shards}, o)
		}),
		entry("ex4", RunEX4, func(o Options) EX4Config {
			c := preset(EX4Config{Seed: o.Seed, Shards: o.Shards}, o)
			if o.Days > 0 {
				c.Rounds = o.Days
			}
			return c
		}),
		entry("ex5", RunEX5, func(o Options) EX5Config {
			c := preset(EX5Config{Seed: o.Seed, Shards: o.Shards}, o)
			if o.Days > 0 {
				c.Days = o.Days
			}
			if o.ProfileRuns > 0 {
				c.ProfileRuns = o.ProfileRuns
			}
			return c
		}),
		entry("ex6", RunEX6, func(o Options) EX6Config {
			c := preset(EX6Config{Seed: o.Seed, Shards: o.Shards}, o)
			if len(o.EX6Arms) > 0 {
				c.Arms = o.EX6Arms
			}
			return c
		}),
		entry("ex7", RunEX7, func(o Options) EX7Config {
			return preset(EX7Config{Seed: o.Seed, Shards: o.Shards}, o)
		}),
		entry("ex8", RunEX8, func(o Options) EX8Config {
			return preset(EX8Config{Seed: o.Seed, Shards: o.Shards}, o)
		}),
		entry("ex9", RunEX9, func(o Options) EX9Config {
			return preset(EX9Config{Seed: o.Seed}, o)
		}),
		entry("ex10", RunEX10, func(o Options) EX10Config {
			return preset(EX10Config{Seed: o.Seed, Shards: o.Shards}, o)
		}),
		entry("ex11", RunEX11, func(o Options) EX11Config {
			c := preset(EX11Config{Seed: o.Seed, Shards: o.Shards}, o)
			if o.ProfileRuns > 0 {
				c.ProfileRuns = o.ProfileRuns
			}
			return c
		}),
	}
}

// entry adapts a typed Run function, and the function that makes its
// config from Options, to the registry's signature.
func entry[C any, R Result](name string, run func(C) (R, error), config func(Options) C) Experiment {
	return Experiment{Name: name, Run: func(o Options) (Result, error) {
		res, err := run(config(o))
		if err != nil {
			return nil, err
		}
		return res, nil
	}}
}

// preset applies c's Reduced preset when o asks for benchmark scale.
// Per-flag overrides go on top of its result, never under it.
func preset[C interface{ Reduced() C }](c C, o Options) C {
	if o.Reduced {
		return c.Reduced()
	}
	return c
}

// table1 is the workload catalog (Table 1). It is static and writes no
// dataset.
type table1 struct{}

func (table1) Render() string {
	t := tablefmt.New("Function", "vCPUs", "BaseMS", "Description")
	for _, s := range workload.All() {
		t.Row(s.Name, s.VCPUs, s.BaseMS, s.Description)
	}
	return "Table 1 — workload catalog\n" + t.String()
}

func (table1) WriteCSV(string) error { return nil }
