package cloudsim

import (
	"fmt"
	"sync"
	"time"

	"skyfaas/internal/cpu"
	"skyfaas/internal/saaf"
	"skyfaas/internal/sim"
)

// invocation is one request's in-flight record, from StartInvokeFrom until
// its response is delivered on the caller's shard. The lifecycle is a chain
// of timed stages (network hop, fault delay, instance init, behavior,
// return hop); each is one event whose callback is the record's step, bound
// once when the record is created. Records, and the Responses they carry
// back, are recycled through pools, so an invocation allocates nothing in
// steady state.
type invocation struct {
	c    *Cloud
	req  Request
	done func(Response)
	// from is the caller's environment: the response is delivered (and
	// OnResponse observed) there.
	from *sim.Env
	// oneWay is the base network one-way latency drawn at send time; any
	// fault-injected extra RTT is applied on the zone's own shard.
	oneWay time.Duration
	sent   time.Time
	az     *AZ

	// Set once the zone places the request on an instance.
	dep      *Deployment
	behavior Behavior
	fi       *FI
	cold     bool
	cached   bool
	started  time.Time
	value    any

	// resp carries the response on its way back to the caller. It lives
	// outside the record, so a request still running (a sampler's leaf
	// sleeping on its instance) holds no Response.
	resp  *Response
	stage stage
	step  func()
}

// stage is what an invocation's next step does.
type stage uint8

const (
	stageArrive     stage = iota // reached the zone's edge
	stageProcess                 // past the zone's fault-injected delay: admit and place
	stageStart                   // instance initialized: run the behavior
	stageFinish                  // behavior done: bill, profile, respond
	stageDeclined                // probe declined: respond without running
	stageDeliver                 // response reached the caller: observe and deliver
	stageEdgeReject              // unknown zone: reject and observe at the provider edge
	stageReturn                  // edge rejection reached the caller: deliver
)

func (inv *invocation) advance() {
	switch inv.stage {
	case stageArrive:
		inv.arrive()
	case stageProcess:
		inv.process()
	case stageStart:
		inv.start()
	case stageFinish:
		inv.finish(nil)
	case stageDeclined:
		inv.declined()
	case stageDeliver:
		inv.deliver(true)
	case stageEdgeReject:
		inv.edgeReject()
	case stageReturn:
		inv.deliver(false)
	}
}

// invocations recycles records across every cloud and shard. A pool, not
// a free list, so that a burst of concurrency (a zone being sampled) does
// not pin its peak count of records for the life of the process.
var invocations sync.Pool

func (c *Cloud) newInvocation() *invocation {
	inv, _ := invocations.Get().(*invocation)
	if inv == nil {
		inv = &invocation{}
		inv.step = inv.advance
	}
	inv.c = c
	return inv
}

// recycle clears a delivered record and returns it to the pool.
func (inv *invocation) recycle() {
	step := inv.step
	*inv = invocation{step: step}
	invocations.Put(inv)
}

// responses recycles the Responses records carry back to their callers.
var responses sync.Pool

// setResponse stores r in the record's pooled Response, taking one from
// the pool first if the record holds none.
func (inv *invocation) setResponse(r Response) {
	if inv.resp == nil {
		inv.resp, _ = responses.Get().(*Response)
		if inv.resp == nil {
			inv.resp = new(Response)
		}
	}
	*inv.resp = r
}

// StartInvokeFrom is StartInvoke for a caller living on a specific shard:
// the request crosses from the caller's env to the zone's shard under the
// network latency, and the response is delivered back on from.
func (c *Cloud) StartInvokeFrom(from *sim.Env, req Request, done func(Response)) {
	inv := c.newInvocation()
	inv.req, inv.done, inv.from, inv.sent = req, done, from, from.Now()
	az, ok := c.azBy[req.AZ]
	if !ok {
		// No such zone: bounce at the provider edge after an intra-cloud
		// round trip, entirely on the caller's shard.
		inv.oneWay = c.opts.IntraCloudRTT / 2
		inv.stage = stageEdgeReject
		from.Schedule(inv.oneWay, inv.step)
		return
	}
	inv.az = az
	inv.oneWay = c.baseOneWay(from, req, az)
	inv.stage = stageArrive
	from.SendTo(az.env, inv.oneWay, inv.step)
}

// edgeReject answers a request for an unknown zone. OnResponse observes it
// at the edge; the caller receives it one hop later.
func (inv *invocation) edgeReject() {
	inv.setResponse(Response{Err: fmt.Errorf("%w: AZ %q", ErrNoSuchDeployment, inv.req.AZ), Sent: inv.sent})
	if inv.c.opts.OnResponse != nil {
		inv.c.opts.OnResponse(inv.req, *inv.resp)
	}
	inv.stage = stageReturn
	inv.from.Schedule(inv.oneWay, inv.step)
}

// arrive runs on the zone's shard when the request reaches the region edge.
// Fault-injected extra RTT delays processing here — on the zone's side —
// so the fault state is only ever read by its owning shard.
func (inv *invocation) arrive() {
	if extra := inv.az.fault.extraRTT / 2; extra > 0 {
		inv.stage = stageProcess
		inv.az.env.Schedule(extra, inv.step)
		return
	}
	inv.process()
}

// process admits the request, places it on an instance, and schedules the
// end of the instance's initialization.
func (inv *invocation) process() {
	c, az, req := inv.c, inv.az, &inv.req
	az.m.invocations.Inc()
	if err := az.rejectChaos(); err != nil {
		inv.fail(err)
		return
	}
	dep, ok := az.deployments[req.Function]
	if !ok {
		az.m.failBadReq.Inc()
		inv.fail(fmt.Errorf("%w: %s/%s", ErrNoSuchDeployment, req.AZ, req.Function))
		return
	}
	behavior := dep.behavior
	if req.Work != nil {
		if !dep.dynamic {
			az.m.failBadReq.Inc()
			inv.fail(fmt.Errorf("%w: work override on non-dynamic deployment", ErrBadRequest))
			return
		}
		behavior = req.Work
	}
	if behavior == nil {
		az.m.failBadReq.Inc()
		inv.fail(fmt.Errorf("%w: deployment has no behavior", ErrBadRequest))
		return
	}

	if az.region.inflight[req.Account] >= c.opts.Quota {
		az.m.failThrottled.Inc()
		inv.fail(ErrThrottled)
		return
	}
	fi, cold, err := az.acquireFI(dep)
	if err != nil {
		az.m.failSaturated.Inc()
		inv.fail(err)
		return
	}
	if cold {
		az.m.coldStarts.Inc()
	}
	az.region.inflight[req.Account]++

	initDelay := time.Duration(c.opts.OverheadMS * float64(time.Millisecond) / 2)
	if cold {
		ms := az.rand.LogNorm(0, c.opts.ColdStartSigma) * c.opts.ColdStartMS * az.fault.coldStartFactor()
		// Init runs on the CPU share the memory setting grants, so
		// low-memory deployments cold-start slower (this is why Fig. 3's
		// smaller memory settings need longer sleeps for full coverage).
		ms *= initMemoryFactor(dep.memoryMB)
		az.m.coldStartMS.Observe(ms)
		initDelay += time.Duration(ms * float64(time.Millisecond))
	}

	cached := false
	if req.PayloadHash != "" {
		cached = fi.cache != nil && hasHash(fi.cache, req.PayloadHash)
		if !cached {
			if fi.cache == nil {
				fi.cache = make(map[string]struct{})
			}
			fi.cache[req.PayloadHash] = struct{}{}
		}
	}

	inv.dep, inv.behavior, inv.fi, inv.cold, inv.cached = dep, behavior, fi, cold, cached
	inv.stage = stageStart
	az.env.Schedule(initDelay, inv.step)
}

// start runs the behavior on the initialized instance.
func (inv *invocation) start() {
	c, az, dep := inv.c, inv.az, inv.dep
	inv.started = az.env.Now()
	switch b := inv.behavior.(type) {
	case SleepBehavior:
		inv.stage = stageFinish
		az.env.Schedule(b.D, inv.step)
	case WorkBehavior:
		dur := c.modelRuntime(az, dep, inv.fi.host, b)
		inv.stage = stageFinish
		az.env.Schedule(dur, inv.step)
	case ProbeBehavior:
		if inv.probeDeclines(b) {
			return // declined: the probe path owns the response and release
		}
		dur := c.modelRuntime(az, dep, inv.fi.host, b.Work)
		extra := time.Duration(probeDecisionMS * float64(time.Millisecond))
		inv.value = ProbeOutcome{Ran: true, RuntimeMS: float64(dur) / float64(time.Millisecond)}
		inv.stage = stageFinish
		az.env.Schedule(dur+extra, inv.step)
	case HandlerBehavior:
		ctx := &Ctx{cloud: c, az: az, dep: dep, fi: inv.fi, cold: inv.cold}
		az.env.Go("handler/"+dep.name, func(p *sim.Proc) error {
			ctx.proc = p
			value, herr := b.Fn(ctx, inv.req)
			inv.value = value
			inv.finish(herr)
			return nil
		})
	default:
		inv.finish(fmt.Errorf("%w: unknown behavior %T", ErrBadRequest, inv.behavior))
	}
}

// finish bills the execution, returns the instance to the warm pool, and
// responds with the SAAF profile the guest collected.
func (inv *invocation) finish(handlerErr error) {
	c, az, dep, fi := inv.c, inv.az, inv.dep, inv.fi
	ended := az.env.Now()
	billedMS := float64(ended.Sub(inv.started)) / float64(time.Millisecond)
	billedMS += c.opts.OverheadMS
	price := c.prices[az.region.spec.Provider]
	cost := price.Cost(dep.memoryMB, billedMS)
	c.meter.ChargeIn(inv.req.Account, az.region.spec.Name, cost)
	az.region.inflight[inv.req.Account]--
	az.releaseFI(fi)

	profile, perr := saaf.Collect(cpu.CPUInfo(fi.host.kind, dep.vcpus()), fi.id, fi.host.id, inv.cold, billedMS)
	respErr := handlerErr
	if respErr == nil && perr != nil {
		respErr = perr
	}
	if respErr != nil {
		az.m.failHandler.Inc()
	} else {
		az.m.billedMS.Observe(billedMS)
	}
	inv.respond(Response{
		Err:           respErr,
		FI:            fi.id,
		Host:          fi.host.id,
		CPU:           profile.Kind,
		Cold:          inv.cold,
		PayloadCached: inv.cached,
		Sent:          inv.sent,
		Started:       inv.started,
		Ended:         ended,
		BilledMS:      billedMS,
		CostUSD:       cost,
		Profile:       profile,
		Value:         inv.value,
	})
}

// fail responds with err before any instance was placed.
func (inv *invocation) fail(err error) {
	inv.respond(Response{Err: err, Sent: inv.sent})
}

// respond ships r back to the caller's shard. The zone's current
// fault-injected extra RTT is added to the return leg; OnResponse observes
// the response at delivery, on the caller's shard, so observation order is
// the caller's deterministic event order.
func (inv *invocation) respond(r Response) {
	inv.setResponse(r)
	back := inv.oneWay + inv.az.fault.extraRTT/2
	inv.stage = stageDeliver
	inv.az.env.SendTo(inv.from, back, inv.step)
}

// deliver hands the response to its caller (observing it first when
// observe is set) and recycles the record. The record is recycled before
// the callback runs, so a callback that invokes again reuses it.
func (inv *invocation) deliver(observe bool) {
	c, req, resp, done := inv.c, inv.req, *inv.resp, inv.done
	*inv.resp = Response{}
	responses.Put(inv.resp)
	inv.recycle()
	if observe && c.opts.OnResponse != nil {
		c.opts.OnResponse(req, resp)
	}
	done(resp)
}
