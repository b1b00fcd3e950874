// Package par provides the bounded worker pool used to data-parallelize
// Cupid's quadratic phases (category-pair name similarity, element-pair
// lsim, the leaf-leaf initialization and refresh sweeps of TreeMatch) and
// the repository's candidate-scoring loops.
//
// All parallel loops in this repository go through For, so a single knob —
// SetMaxWorkers — switches the whole pipeline between sequential and
// concurrent execution. That is what the determinism tests and the
// cupidbench sequential-vs-parallel comparison rely on. Every loop body
// writes only cells owned by its index, so results are bit-identical to
// the sequential order regardless of scheduling.
//
// The worker bound is global, not per call. The caller of For always
// works its own loop; on top of that a loop borrows helper goroutines
// from one process-wide budget of Workers()-1 helpers, shared by every
// loop in the process. A loop that finds no helper free runs inline on
// its caller. So a loop nested inside another loop's body (the per-match
// kernels inside a repository's candidate loop) runs sequentially while
// the outer loop keeps the cores busy. A top-level loop fans out over the
// helpers that are free when it starts: all of them when nothing else
// runs, none while another long loop (a candidate sweep, a clustering
// job) holds them, in which case it runs on its caller alone. Goroutines
// running loop bodies never exceed Workers() for one top-level call,
// however deeply its loops nest; k concurrent top-level callers add at
// most k-1 to that, because each works its own loop.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers caps the number of goroutines that run loop bodies: every
// caller plus the helpers they share. 0 (the default) means
// runtime.GOMAXPROCS(0).
var maxWorkers atomic.Int64

// SetMaxWorkers caps the worker count for subsequent For calls; n <= 0
// restores the default (GOMAXPROCS). It returns the previous cap so
// callers can defer-restore. Safe for concurrent use, but intended for
// setup/benchmark code, not for calls racing with active loops.
func SetMaxWorkers(n int) int {
	prev := int(maxWorkers.Swap(int64(n)))
	return prev
}

// Workers reports how many goroutines a large loop runs on when nothing
// else holds the helper budget: its caller plus Workers()-1 helpers.
func Workers() int {
	if n := int(maxWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// seqThreshold is the loop size below which For always runs inline:
// goroutine startup costs more than the work it would offload.
const seqThreshold = 4

// For runs fn(i) for every i in [0, n) on the caller and on as many of
// the Workers()-1 process-wide helpers as are free (none: the loop runs
// inline, in index order). Iterations are handed out in contiguous chunks
// via an atomic cursor, so scheduling is work-stealing-ish without
// per-index channel traffic. fn must be safe to call concurrently for
// distinct indexes; For returns only after every iteration completed.
func For(n int, fn func(i int)) {
	forCancel(n, nil, fn)
}

// ForCtx is For with cooperative cancellation: every worker checks the
// context before each iteration and stops handing out work once it is
// done, so an abandoned caller (client disconnect, deadline) stops
// consuming CPU after at most one in-flight fn per worker. It returns
// ctx.Err() when the loop was cut short — iterations may then have been
// skipped, so the caller must discard partial results — and nil when
// every iteration ran. The serving layer threads request contexts through
// the registry's candidate-scoring loops with this.
func ForCtx(ctx context.Context, n int, fn func(i int)) error {
	if ctx == nil || ctx.Done() == nil {
		// Background-like contexts can never be canceled; skip the
		// per-iteration Err() calls entirely.
		forCancel(n, nil, fn)
		return nil
	}
	forCancel(n, ctx.Err, fn)
	return ctx.Err()
}

// helpers counts the helper goroutines currently borrowed by loops,
// process-wide; borrow keeps it at most Workers()-1.
var helpers atomic.Int64

// borrow takes up to want helpers from the process-wide budget and
// returns how many it got (0 when every helper is busy).
func borrow(want int) int {
	limit := int64(Workers() - 1)
	for {
		cur := helpers.Load()
		k := min(int64(want), limit-cur)
		if k <= 0 {
			return 0
		}
		if helpers.CompareAndSwap(cur, cur+k) {
			return int(k)
		}
	}
}

// forCancel is the shared loop body: canceled (nil = never) is consulted
// before each iteration.
func forCancel(n int, canceled func() error, fn func(i int)) {
	if w := min(Workers(), n); w > 1 && n >= seqThreshold {
		if k := borrow(w - 1); k > 0 {
			forHelped(n, k, canceled, fn)
			return
		}
	}
	for i := 0; i < n; i++ {
		if canceled != nil && canceled() != nil {
			return
		}
		fn(i)
	}
}

// forHelped runs the loop on the caller plus k borrowed helpers. Each
// helper returns its budget as soon as it runs out of work, so another
// loop can borrow it while this one finishes.
func forHelped(n, k int, canceled func() error, fn func(i int)) {
	// Chunks small enough to balance uneven iteration costs, large enough
	// to amortize the atomic increment.
	l := &loop{n: n, chunk: max(n/((k+1)*4), 1), canceled: canceled, fn: fn}
	l.wg.Add(k)
	for g := 0; g < k; g++ {
		go l.help()
	}
	// Even if fn panics on the caller, no helper outlives the call.
	defer l.wg.Wait()
	l.work()
}

// loop is the state one parallel loop shares among its goroutines.
type loop struct {
	n, chunk int
	canceled func() error
	fn       func(i int)
	cursor   atomic.Int64
	wg       sync.WaitGroup
}

func (l *loop) help() {
	defer l.wg.Done()
	defer helpers.Add(-1)
	l.work()
}

// work runs chunks of iterations until none is left or the loop is
// canceled.
func (l *loop) work() {
	for {
		end := int(l.cursor.Add(int64(l.chunk)))
		start := end - l.chunk
		if start >= l.n {
			return
		}
		for i := start; i < min(end, l.n); i++ {
			if l.canceled != nil && l.canceled() != nil {
				return
			}
			l.fn(i)
		}
	}
}
