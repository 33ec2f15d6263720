package faas

import (
	"errors"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/sim"
)

// This file holds the resilient invocation path. Do runs one logical
// invocation under an InvokeSpec: the call plus its deadline, retry budget,
// and hedge policy. InvokeAsync (faas.go) is the single-attempt fan-out form
// the sampler and the router's profiler use.

// ErrDeadlineExceeded is returned when an invocation's deadline elapses
// before any attempt produced a response.
var ErrDeadlineExceeded = errors.New("faas: invocation deadline exceeded")

// RetryPolicy bounds and paces re-attempts after transient platform
// failures (throttles, saturation, zone outages). The zero value means a
// single attempt with no retries.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget including the first
	// (0 or 1 = no retries).
	MaxAttempts int
	// BaseBackoff is the pause before the first retry (default 50 ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 5 s).
	MaxBackoff time.Duration
	// Multiplier grows the backoff per retry (default 2).
	Multiplier float64
	// JitterFrac spreads each backoff uniformly within ±JitterFrac of
	// itself, drawn from the client's seeded stream so two same-seed runs
	// jitter identically (default 0 = no jitter).
	JitterFrac float64
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

func (p RetryPolicy) base() time.Duration {
	if p.BaseBackoff <= 0 {
		return 50 * time.Millisecond
	}
	return p.BaseBackoff
}

func (p RetryPolicy) capped() time.Duration {
	if p.MaxBackoff <= 0 {
		return 5 * time.Second
	}
	return p.MaxBackoff
}

func (p RetryPolicy) multiplier() float64 {
	if p.Multiplier <= 1 {
		return 2
	}
	return p.Multiplier
}

// Backoff returns the pause before retry number n (1-based), applying
// exponential growth, the cap, and jitter drawn from rand. A nil rand or
// zero JitterFrac yields the deterministic un-jittered schedule.
func (p RetryPolicy) Backoff(n int, rand JitterSource) time.Duration {
	d := float64(p.base())
	mult := p.multiplier()
	for i := 1; i < n; i++ {
		d *= mult
		if d >= float64(p.capped()) {
			break
		}
	}
	if d > float64(p.capped()) {
		d = float64(p.capped())
	}
	if p.JitterFrac > 0 && rand != nil {
		d = rand.Jitter(d, p.JitterFrac)
	}
	return time.Duration(d)
}

// JitterSource is the slice of rng.Stream the backoff path needs; taking an
// interface keeps the policy testable with a fixed source.
type JitterSource interface {
	Jitter(v, amount float64) float64
}

// HedgePolicy duplicates a slow invocation: if no response arrives within
// After, a hedge copy is issued and the first response wins. The zero value
// disables hedging.
type HedgePolicy struct {
	// After is the latency threshold that triggers a hedge (0 = disabled).
	After time.Duration
	// Max is how many hedge copies may be issued per attempt (default 1).
	Max int
}

// MaxHedges is the effective hedge budget per attempt (Max, min 1).
func (h HedgePolicy) MaxHedges() int {
	if h.Max < 1 {
		return 1
	}
	return h.Max
}

// Enabled reports whether the policy triggers hedges.
func (h HedgePolicy) Enabled() bool { return h.After > 0 }

// InvokeSpec fully describes one logical invocation: the call plus its
// failure-handling envelope.
type InvokeSpec struct {
	Call Call
	// Deadline bounds the whole invocation — every attempt, backoff, and
	// hedge — in virtual time (0 = unbounded).
	Deadline time.Duration
	// Retry is the transient-failure budget.
	Retry RetryPolicy
	// Hedge is the tail-latency duplication policy.
	Hedge HedgePolicy
}

// Retryable reports whether err is a transient platform failure worth
// re-attempting (throttle, saturation, injected zone outage).
func Retryable(err error) bool {
	return errors.Is(err, cloudsim.ErrThrottled) ||
		errors.Is(err, cloudsim.ErrSaturated) ||
		errors.Is(err, cloudsim.ErrZoneOutage)
}

// Do performs one logical invocation under spec's envelope, blocking the
// calling process: attempts are retried per the retry policy, each attempt
// may be hedged, and the deadline bounds the whole affair. With a zero
// envelope it is one blocking attempt.
func (c *Client) Do(p *sim.Proc, spec InvokeSpec) cloudsim.Response {
	env := c.cloud.Env()
	start := env.Now()
	budget := spec.Retry.maxAttempts()
	var resp cloudsim.Response
	for attempt := 1; ; attempt++ {
		remaining := time.Duration(-1)
		if spec.Deadline > 0 {
			remaining = spec.Deadline - env.Now().Sub(start)
			if remaining <= 0 {
				return cloudsim.Response{Err: ErrDeadlineExceeded, Sent: env.Now()}
			}
		}
		resp = c.attempt(p, spec, remaining)
		if resp.OK() || !Retryable(resp.Err) || attempt >= budget {
			return resp
		}
		pause := spec.Retry.Backoff(attempt, c.rand)
		if spec.Deadline > 0 && env.Now().Add(pause).Sub(start) >= spec.Deadline {
			return resp // backing off would blow the deadline; surface the failure
		}
		p.Sleep(pause)
	}
}

// attempt issues one (possibly hedged) attempt and waits for the first
// response, or the remaining deadline to lapse (remaining < 0 = unbounded).
// The hedge loser is abandoned: its response is discarded on arrival, which
// is what cancelling a FaaS request amounts to — the execution (and its
// bill) cannot be recalled, only ignored.
func (c *Client) attempt(p *sim.Proc, spec InvokeSpec, remaining time.Duration) cloudsim.Response {
	if !spec.Hedge.Enabled() && remaining < 0 {
		return c.cloud.Invoke(p, c.request(spec.Call))
	}
	env := c.cloud.Env()
	first := sim.NewEvent(env)
	launch := func() {
		c.cloud.StartInvoke(c.request(spec.Call), func(r cloudsim.Response) {
			first.Trigger(r) // idempotent: the first response wins, losers are dropped
		})
	}
	launch()
	if spec.Hedge.Enabled() {
		var arm func(left int)
		arm = func(left int) {
			if left == 0 {
				return
			}
			env.Schedule(spec.Hedge.After, func() {
				if first.Triggered() {
					return
				}
				launch()
				arm(left - 1)
			})
		}
		arm(spec.Hedge.MaxHedges())
	}
	if remaining >= 0 {
		env.Schedule(remaining, func() {
			first.Trigger(cloudsim.Response{Err: ErrDeadlineExceeded, Sent: env.Now()})
		})
	}
	v := p.Wait(first)
	r, ok := v.(cloudsim.Response)
	if !ok {
		return cloudsim.Response{Err: cloudsim.ErrBadRequest}
	}
	return r
}
