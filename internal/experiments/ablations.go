package experiments

import (
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
	"skyfaas/internal/faas"
	"skyfaas/internal/router"
	"skyfaas/internal/sampler"
	"skyfaas/internal/sim"
	"skyfaas/internal/workload"
)

// This file holds the ablation studies DESIGN.md §6 calls out: they justify
// the design choices of the reproduced system rather than regenerate a
// paper figure.

// AblationFanoutResult compares the recursive-tree fan-out against a flat
// client fan-out at equal request counts.
type AblationFanoutResult struct {
	// TreeUniqueFIs / TreeClientCalls: one tree poll's coverage and the
	// concurrent requests the client itself had to hold open.
	TreeUniqueFIs   int
	TreeClientCalls int
	// FlatUniqueFIs / FlatClientCalls: the same request volume issued as
	// individual client calls.
	FlatUniqueFIs   int
	FlatClientCalls int
}

// RunAblationFanout measures both fan-out shapes in a fresh zone each.
func RunAblationFanout(seed uint64) (AblationFanoutResult, error) {
	cfg := sampler.Config{
		Endpoints: 4, PollSize: 222, Branch: 10,
		InterPollPause: 500 * time.Millisecond,
	}
	rt, err := newRuntime(seed, 2, cfg, 0)
	if err != nil {
		return AblationFanoutResult{}, err
	}
	const az = "us-west-1a"
	var res AblationFanoutResult
	err = rt.Do(func(p *sim.Proc) error {
		if err := rt.EnsureSamplerEndpoints(az); err != nil {
			return err
		}
		s := rt.Sampler()

		// Tree fan-out: the client only issues the root requests.
		tree := s.Poll(p, az, 0)
		res.TreeUniqueFIs = uniqueFIs(tree)
		res.TreeClientCalls = s.Config().PollSize / (1 + s.Config().Branch + s.Config().Branch*s.Config().Branch)

		// Let the tree's instances expire so the flat poll starts cold.
		p.Sleep(rt.Cloud().Options().KeepAlive + time.Minute)

		// Flat fan-out: the client holds every request itself.
		client := rt.Client()
		call := faas.Call{
			AZ:       az,
			Function: flatEndpointName(s, az),
			Work:     cloudsim.SleepBehavior{D: s.Config().Sleep},
		}
		futures := make([]*faas.Future, tree.Requested)
		for i := range futures {
			futures[i] = client.InvokeAsync(call)
		}
		seen := make(map[string]struct{}, len(futures))
		for _, f := range futures {
			if r := f.Wait(p); r.OK() {
				seen[r.FI] = struct{}{}
			}
		}
		res.FlatUniqueFIs = len(seen)
		res.FlatClientCalls = tree.Requested
		return nil
	})
	if err != nil {
		return AblationFanoutResult{}, err
	}
	return res, nil
}

// flatEndpointName picks a sampler endpoint not used by the tree poll.
func flatEndpointName(s *sampler.Sampler, az string) string {
	// Endpoint 1 (the tree used endpoint 0).
	return flatName(s.Config().Prefix, az)
}

func flatName(prefix, az string) string {
	return prefix + "-" + az + "-001"
}

func uniqueFIs(pr sampler.PollResult) int {
	seen := make(map[string]struct{}, len(pr.Reports))
	for _, rep := range pr.Reports {
		seen[rep.UUID] = struct{}{}
	}
	return len(seen)
}

// AblationPassiveResult compares routing on polled characterizations
// against free passive ones built from the traffic itself (§4.6).
type AblationPassiveResult struct {
	// PolledSavings / PolledSamplingUSD: hybrid savings and the polling
	// spend that enabled them.
	PolledSavings     float64
	PolledSamplingUSD float64
	// PassiveSavings / PassiveSamplingUSD: the same with zero-cost passive
	// characterization.
	PassiveSavings     float64
	PassiveSamplingUSD float64
}

// RunAblationPassive routes a workload for several days over volatile
// zones twice — once refreshing characterizations by polling, once
// passively from the traffic — on identical worlds.
func RunAblationPassive(seed uint64) (AblationPassiveResult, error) {
	const days = 4
	zones := []string{"us-west-1a", "us-west-1b", "sa-east-1a"}
	run := func(passive bool) (float64, float64, error) {
		rt, err := core.New(core.Config{
			Seed:       seed,
			Epoch:      defaultEpoch,
			SamplerCfg: reducedSampler(),
			CloudOpts:  cloudsim.Options{HorizonDays: days + 2},
			SkipMesh:   true,
		})
		if err != nil {
			return 0, 0, err
		}
		if passive {
			rt.EnablePassiveCharacterization(24 * time.Hour)
		}
		var baseTotal, hybTotal, sampling float64
		err = rt.Do(func(p *sim.Proc) error {
			if _, err := rt.ProfileWorkloads(p, []workload.ID{workload.MathService}, zones, 600); err != nil {
				return err
			}
			p.Sleep(6 * time.Minute)
			for day := 0; day < days; day++ {
				if passive {
					rt.RefreshPassive(zones, 100)
				} else {
					cost, err := rt.Refresh(p, zones, 3)
					if err != nil {
						return err
					}
					sampling += cost
				}
				base, err := rt.Run(p, router.BurstSpec{
					Strategy: router.Baseline{AZ: "us-west-1b"}, Workload: workload.MathService,
					N: 200, Candidates: zones,
				})
				if err != nil {
					return err
				}
				p.Sleep(6 * time.Minute)
				hyb, err := rt.Run(p, router.BurstSpec{
					Strategy: router.Hybrid{}, Workload: workload.MathService,
					N: 200, Candidates: zones,
				})
				if err != nil {
					return err
				}
				baseTotal += base.CostUSD
				hybTotal += hyb.CostUSD
				if day < days-1 {
					p.Sleep(22 * time.Hour)
				}
			}
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		return 1 - hybTotal/baseTotal, sampling, nil
	}
	polled, polledCost, err := run(false)
	if err != nil {
		return AblationPassiveResult{}, err
	}
	passive, passiveCost, err := run(true)
	if err != nil {
		return AblationPassiveResult{}, err
	}
	return AblationPassiveResult{
		PolledSavings:      polled,
		PolledSamplingUSD:  polledCost,
		PassiveSavings:     passive,
		PassiveSamplingUSD: passiveCost,
	}, nil
}

// AblationStaleResult compares routing on fresh daily characterizations
// against a frozen day-1 profile.
type AblationStaleResult struct {
	FreshSavings float64
	StaleSavings float64
}

// RunAblationStaleProfile routes a workload for several days over volatile
// zones twice — refreshing characterizations daily versus freezing day 1 —
// and reports cumulative savings versus the fixed-zone baseline in each
// mode. Both runs replay the identical world (same seed).
func RunAblationStaleProfile(seed uint64) (AblationStaleResult, error) {
	const days = 5
	zones := []string{"us-west-1a", "us-west-1b", "sa-east-1a"}
	run := func(refreshDaily bool) (float64, error) {
		rt, err := core.New(core.Config{
			Seed:       seed,
			Epoch:      defaultEpoch,
			SamplerCfg: reducedSampler(),
			CloudOpts:  cloudsim.Options{HorizonDays: days + 2},
			StoreTTL:   1000 * time.Hour, // stale mode relies on old entries staying visible
			SkipMesh:   true,
		})
		if err != nil {
			return 0, err
		}
		var baseTotal, hybTotal float64
		err = rt.Do(func(p *sim.Proc) error {
			if _, err := rt.ProfileWorkloads(p, []workload.ID{workload.Zipper}, zones, 450); err != nil {
				return err
			}
			p.Sleep(6 * time.Minute)
			for day := 0; day < days; day++ {
				if day == 0 || refreshDaily {
					if _, err := rt.Refresh(p, zones, 3); err != nil {
						return err
					}
				}
				base, err := rt.Run(p, router.BurstSpec{
					Strategy: router.Baseline{AZ: "us-west-1b"}, Workload: workload.Zipper,
					N: 200, Candidates: zones,
				})
				if err != nil {
					return err
				}
				p.Sleep(6 * time.Minute)
				hyb, err := rt.Run(p, router.BurstSpec{
					Strategy: router.Hybrid{}, Workload: workload.Zipper,
					N: 200, Candidates: zones,
				})
				if err != nil {
					return err
				}
				baseTotal += base.CostUSD
				hybTotal += hyb.CostUSD
				if day < days-1 {
					p.Sleep(22 * time.Hour)
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		return 1 - hybTotal/baseTotal, nil
	}
	fresh, err := run(true)
	if err != nil {
		return AblationStaleResult{}, err
	}
	stale, err := run(false)
	if err != nil {
		return AblationStaleResult{}, err
	}
	return AblationStaleResult{FreshSavings: fresh, StaleSavings: stale}, nil
}
