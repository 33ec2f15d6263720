package main

import (
	"sync"
	"time"
)

// timing is one scheduled request's life, as offsets from the run start.
type timing struct {
	due      time.Duration // when the schedule says it is sent
	released time.Duration // when the generator handed it to the workers
	picked   time.Duration // when a worker, and so a connection, took it
	done     time.Duration // when its last response byte arrived
	ok       bool          // a validated success
}

// latency is the request's time from its due time to its last byte. A
// failed request ranks beyond every served one: it counts as the limit.
func (t timing) latency(limit time.Duration) time.Duration {
	if !t.ok {
		return limit
	}
	return t.done - t.due
}

// openLoop sends one request per due offset, open loop: the generator
// releases each at its due time whatever the server's state, and workers
// goroutines (one connection each) take them in order. do performs request
// i and reports whether its response validated. openLoop returns once every
// request has finished.
func openLoop(due []time.Duration, workers int, do func(i int, picked time.Time) bool) []timing {
	out := make([]timing, len(due))
	// Sized to the number of sends: the generator never blocks on a busy
	// server, the backlog waits here instead.
	queue := make(chan int, len(due))
	start := time.Now()
	go func() {
		defer close(queue)
		for i, d := range due {
			if wait := time.Until(start.Add(d)); wait > 0 {
				time.Sleep(wait)
			}
			out[i].due = d
			out[i].released = time.Since(start)
			queue <- i
		}
	}()
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				now := time.Now()
				out[i].picked = now.Sub(start)
				out[i].ok = do(i, now)
				out[i].done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}

// loadStats summarizes a phase's timings.
type loadStats struct {
	latencies []float64 // ms, failures at the limit
	late      []float64 // ms from due to release
	connWait  []float64 // ms from release to a free connection
	failed    int
	wall      time.Duration // from the run start to the last byte
}

func summarizeLoad(ts []timing, limit time.Duration) loadStats {
	var s loadStats
	for _, t := range ts {
		s.latencies = append(s.latencies, ms(t.latency(limit)))
		s.late = append(s.late, ms(t.released-t.due))
		s.connWait = append(s.connWait, ms(t.picked-t.released))
		if !t.ok {
			s.failed++
		}
		s.wall = max(s.wall, t.done)
	}
	return s
}
