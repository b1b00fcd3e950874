package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// op is one timed request as the load generator saw it. Times are
// offsets from the run's clock origin.
type op struct {
	idx   int
	open  bool          // sent by the open loop
	sched time.Duration // scheduled send (open loop only)
	sent  time.Duration
	done  time.Duration
	rep   reply
}

// latency is measured from the scheduled send in an open loop, so a
// stall also charges the requests queued behind it, and from the actual
// send in a closed loop.
func (o op) latency() time.Duration {
	if o.open {
		return o.done - o.sched
	}
	return o.done - o.sent
}

// clock is the run's monotonic time origin.
type clock struct{ t0 time.Time }

func (c clock) now() time.Duration { return time.Since(c.t0) }

// timed sends one request and stamps it.
func (c clock) timed(idx int, send func() reply) op {
	o := op{idx: idx, sent: c.now()}
	o.rep = send()
	o.done = c.now()
	return o
}

// closedLoop runs clients that each send their next request only after
// the previous reply arrived. Request indices are handed out in order;
// a client stops once more(elapsed, completed) is false. prepare builds
// request i outside the timed span.
func closedLoop(c clock, clients int, more func(elapsed time.Duration, completed int) bool, prepare func(i int) (func() reply, error)) ([]op, error) {
	var (
		next     atomic.Int64
		finished atomic.Int64
		mu       sync.Mutex
		ops      []op
		firstErr error
		wg       sync.WaitGroup
	)
	start := c.now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more(c.now()-start, int(finished.Load())) {
				i := int(next.Add(1) - 1)
				send, err := prepare(i)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				o := c.timed(i, send)
				finished.Add(1)
				mu.Lock()
				ops = append(ops, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ops, firstErr
}

// atLeast keeps a closed loop going until both minDur has passed and
// minOps requests completed.
func atLeast(minDur time.Duration, minOps int) func(time.Duration, int) bool {
	return func(elapsed time.Duration, completed int) bool {
		return elapsed < minDur || completed < minOps
	}
}

// openLoop sends n requests over one connection on a fixed schedule,
// request j due at start + j*period regardless of earlier replies; a
// request whose turn comes while the previous one is in flight waits for
// the connection, and that wait counts in its latency.
func openLoop(c clock, period time.Duration, n int, prepare func(j int) (func() reply, error)) ([]op, error) {
	start := c.now()
	ops := make([]op, 0, n)
	for j := 0; j < n; j++ {
		send, err := prepare(j)
		if err != nil {
			return ops, err
		}
		due := start + time.Duration(j)*period
		if wait := due - c.now(); wait > 0 {
			time.Sleep(wait)
		}
		o := c.timed(j, send)
		o.open, o.sched = true, due
		ops = append(ops, o)
	}
	return ops, nil
}
