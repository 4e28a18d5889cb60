package par

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != 1 {
		t.Fatalf("Resolve(0) = %d, want 1", got)
	}
	if got := Resolve(1); got != 1 {
		t.Fatalf("Resolve(1) = %d, want 1", got)
	}
	if got := Resolve(7); got != 7 {
		t.Fatalf("Resolve(7) = %d, want 7", got)
	}
	if got := Resolve(-1); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(-1) = %d, want GOMAXPROCS", got)
	}
}

func TestDoCoversEveryItemExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, -1} {
		const n = 1000
		hits := make([]atomic.Int32, n)
		if err := Do(context.Background(), n, workers, func(_, i int) {
			hits[i].Add(1)
		}); err != nil {
			t.Fatalf("workers=%d: Do: %v", workers, err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: item %d processed %d times", workers, i, c)
			}
		}
	}
}

func TestDoNilContext(t *testing.T) {
	ran := 0
	if err := Do(nil, 10, 1, func(_, _ int) { ran++ }); err != nil || ran != 10 {
		t.Fatalf("Do(nil ctx) err=%v ran=%d, want nil/10", err, ran)
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 500
	want, err := Map(context.Background(), n, 1, func(_, i int) int { return i * i })
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, -1} {
		got, err := Map(context.Background(), n, workers, func(_, i int) int { return i * i })
		if err != nil {
			t.Fatalf("workers=%d: Map: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestDoWorkerIndexInRange(t *testing.T) {
	const n, workers = 200, 4
	var bad atomic.Int32
	Do(context.Background(), n, workers, func(w, _ int) {
		if w < 0 || w >= workers {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatal("worker index out of [0, workers)")
	}
}

func TestDoEmptyAndSingle(t *testing.T) {
	ran := 0
	Do(context.Background(), 0, 8, func(_, _ int) { ran++ })
	if ran != 0 {
		t.Fatal("Do(0, ...) ran items")
	}
	Do(context.Background(), 1, 8, func(w, i int) {
		if w != 0 || i != 0 {
			t.Fatalf("Do(1, ...) got (w=%d, i=%d)", w, i)
		}
		ran++
	})
	if ran != 1 {
		t.Fatal("Do(1, ...) did not run the single item")
	}
}

// TestDoCancelPreCancelled: a context cancelled before the call returns
// ctx.Err() without running every item (sequential path may run up to one
// check stride; parallel path may race a few claims).
func TestDoCancelPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := Do(ctx, 100000, workers, func(_, _ int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); int(n) >= 100000 {
			t.Fatalf("workers=%d: cancelled Do ran all %d items", workers, n)
		}
	}
}

// TestDoCancelPrompt: cancelling mid-run aborts item claiming promptly —
// the call returns well within the cancellation-latency budget even
// though plenty of work remains.
func TestDoCancelPrompt(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		start := time.Now()
		errCh := make(chan error, 1)
		go func() {
			errCh <- Do(ctx, 1<<30, workers, func(_, _ int) {
				ran.Add(1)
				time.Sleep(50 * time.Microsecond)
			})
		}()
		for ran.Load() < 10 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		err := <-errCh
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("workers=%d: cancelled Do took %v", workers, el)
		}
	}
}

// TestDoDeadline: a deadline context surfaces context.DeadlineExceeded.
func TestDoDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := Do(ctx, 1<<30, 2, func(_, _ int) { time.Sleep(100 * time.Microsecond) })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestChunks(t *testing.T) {
	for _, tc := range []struct {
		n, workers int
	}{{0, 4}, {1, 4}, {7, 3}, {100, 8}, {5, 5}, {3, 16}} {
		chunks := Chunks(tc.n, tc.workers)
		next := 0
		for _, c := range chunks {
			if c[0] != next {
				t.Fatalf("n=%d workers=%d: chunk starts at %d, want %d", tc.n, tc.workers, c[0], next)
			}
			if c[1] <= c[0] {
				t.Fatalf("n=%d workers=%d: empty chunk %v", tc.n, tc.workers, c)
			}
			next = c[1]
		}
		if next != tc.n {
			t.Fatalf("n=%d workers=%d: chunks cover [0,%d), want [0,%d)", tc.n, tc.workers, next, tc.n)
		}
		if len(chunks) > Resolve(tc.workers) {
			t.Fatalf("n=%d workers=%d: %d chunks", tc.n, tc.workers, len(chunks))
		}
	}
}

// TestDoYieldsToOtherGoroutines: while a Do keeps every P busy with
// short CPU-bound items, a sleeping goroutine still wakes close to its
// deadline, because workers yield their P every yieldQuantum. Without the
// yield a timer due mid-pass waits for the pass to end or for the
// runtime's ~10 ms preemption, so the median wake-up lateness is
// milliseconds; with it, a fraction of one. Both the uncancellable and
// the cancellable worker loops are checked.
func TestDoYieldsToOtherGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: spins every CPU for about a second")
	}
	workers := runtime.GOMAXPROCS(0)
	spin := func(_, _ int) {
		for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
		}
	}
	for _, cancellable := range []bool{false, true} {
		ctx := context.Background()
		if cancellable {
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(ctx)
			defer cancel()
		}
		const naps = 21
		late := make([]time.Duration, 0, naps)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < naps; i++ {
				due := time.Now().Add(5 * time.Millisecond)
				time.Sleep(5 * time.Millisecond)
				late = append(late, time.Since(due))
			}
		}()
		// 20 µs items for ~0.4 s of every worker's time: far longer than
		// the naps, so every nap falls inside the pass.
		if err := Do(ctx, 20000*workers, workers, spin); err != nil {
			t.Fatal(err)
		}
		<-done
		slices.Sort(late)
		if med := late[naps/2]; med > 3*time.Millisecond {
			t.Errorf("cancellable=%v: median wake-up lateness %v during a pass on every P, want under 3ms (all: %v)", cancellable, med, late)
		}
	}
}
