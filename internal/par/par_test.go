package par

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		for _, n := range []int{0, 1, 3, 4, 7, 100, 1000} {
			prev := SetMaxWorkers(workers)
			hits := make([]int32, n)
			For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			SetMaxWorkers(prev)
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestSetMaxWorkersRoundTrip(t *testing.T) {
	prev := SetMaxWorkers(3)
	defer SetMaxWorkers(prev)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetMaxWorkers(3)", got)
	}
	if got := SetMaxWorkers(0); got != 3 {
		t.Fatalf("SetMaxWorkers returned previous cap %d, want 3", got)
	}
	if Workers() < 1 {
		t.Fatal("default worker count must be at least 1")
	}
}

func TestForNestedDoesNotDeadlock(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	var total atomic.Int64
	For(10, func(i int) {
		For(10, func(j int) { total.Add(1) })
	})
	if total.Load() != 100 {
		t.Fatalf("nested For ran %d iterations, want 100", total.Load())
	}
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 17 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// occupancy tracks the distinct goroutines currently inside loop bodies
// (a body nested in a body on the same goroutine counts once) and the
// high-water mark of how many of them were not loop callers.
type occupancy struct {
	mu      sync.Mutex
	depth   map[uint64]int
	callers map[uint64]bool
	active  int // goroutines inside a body
	helping int // of those, goroutines that are no test caller
	maxAll  int
	maxHelp int
}

func newOccupancy() *occupancy {
	return &occupancy{depth: map[uint64]int{}, callers: map[uint64]bool{}}
}

func (o *occupancy) caller() {
	o.mu.Lock()
	o.callers[goid()] = true
	o.mu.Unlock()
}

// body wraps one loop iteration: it records entry, spins long enough for
// the loop's goroutines to overlap, runs inner, and records exit.
func (o *occupancy) body(inner func()) {
	id := goid()
	o.mu.Lock()
	if o.depth[id] == 0 {
		o.active++
		if !o.callers[id] {
			o.helping++
		}
		o.maxAll = max(o.maxAll, o.active)
		o.maxHelp = max(o.maxHelp, o.helping)
	}
	o.depth[id]++
	o.mu.Unlock()
	for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
		runtime.Gosched()
	}
	if inner != nil {
		inner()
	}
	o.mu.Lock()
	o.depth[id]--
	if o.depth[id] == 0 {
		o.active--
		if !o.callers[id] {
			o.helping--
		}
	}
	o.mu.Unlock()
}

// TestGoroutinesStayWithinWorkers: however loops nest, the goroutines
// running bodies of one top-level call never exceed Workers(); with
// concurrent callers the helpers they share never exceed Workers()-1.
// The budget is fully returned when the loops end.
func TestGoroutinesStayWithinWorkers(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	nested := func(o *occupancy) {
		For(16, func(i int) {
			o.body(func() {
				For(16, func(j int) {
					o.body(func() { For(8, func(k int) { o.body(nil) }) })
				})
			})
		})
	}

	o := newOccupancy()
	o.caller()
	nested(o)
	if o.maxAll > Workers() {
		t.Errorf("nested loops ran bodies on %d goroutines at once, want <= %d", o.maxAll, Workers())
	}
	if o.maxAll < 2 {
		t.Errorf("nested loops never ran in parallel (max %d goroutines)", o.maxAll)
	}

	o = newOccupancy()
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.caller()
			nested(o)
		}()
	}
	wg.Wait()
	if o.maxHelp > Workers()-1 {
		t.Errorf("concurrent callers shared %d helpers at once, want <= %d", o.maxHelp, Workers()-1)
	}
	if got := helpers.Load(); got != 0 {
		t.Errorf("%d helpers still borrowed after every loop returned", got)
	}
}

// TestNestedForRunsInlineWhenBudgetTaken: while an outer loop holds every
// helper, a loop started in one of its bodies runs entirely on the
// goroutine that called it.
func TestNestedForRunsInlineWhenBudgetTaken(t *testing.T) {
	prev := SetMaxWorkers(2)
	defer SetMaxWorkers(prev)
	var entered, finished sync.WaitGroup
	entered.Add(2)
	finished.Add(2)
	For(4, func(i int) {
		if i >= 2 {
			return
		}
		// Bodies 0 and 1 meet here, so they run on the caller and on the
		// one helper, which stays borrowed until both inner loops end.
		entered.Done()
		entered.Wait()
		self := goid()
		var foreign atomic.Int64
		For(100, func(j int) {
			if goid() != self {
				foreign.Add(1)
			}
		})
		if n := foreign.Load(); n != 0 {
			t.Errorf("body %d: %d inner iterations ran on another goroutine while the budget was taken", i, n)
		}
		finished.Done()
		finished.Wait()
	})
}

// TestOneWorkerIsSequential: with SetMaxWorkers(1) every loop, nested or
// not, runs on the caller in index order.
func TestOneWorkerIsSequential(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	self := goid()
	var order []int
	For(50, func(i int) {
		For(4, func(j int) {
			if goid() != self {
				t.Fatalf("iteration (%d, %d) left the calling goroutine", i, j)
			}
			order = append(order, i*4+j)
		})
	})
	for k, v := range order {
		if k != v {
			t.Fatalf("iteration %d ran at position %d, want index order", v, k)
		}
	}
	if len(order) != 200 {
		t.Fatalf("ran %d iterations, want 200", len(order))
	}
}
