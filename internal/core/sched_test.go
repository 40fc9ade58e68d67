package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// extraGoroutines reports how many goroutines exist above base, giving
// jobs that just finished a moment to return.
func extraGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdleStoreRunsNoGoroutine checks the scheduler's idle invariant: a
// store with nothing left to do runs no background goroutine — after
// Open, after a fill that exercised every lane, after Close, and after a
// crash and recovery.
func TestIdleStoreRunsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	opts := vlogOpts()
	db := mustOpen(t, opts)
	if n := extraGoroutines(base); n > 0 {
		t.Fatalf("fresh store runs %d background goroutines", n)
	}

	fill := func(db *DB) {
		t.Helper()
		for round := 0; round < 100; round++ {
			for i := 0; i < 60; i++ {
				k := fmt.Sprintf("idle%03d", i)
				if err := db.Put([]byte(k), bigVal(fmt.Sprintf("%s-r%d", k, round), 1<<10)); err != nil {
					t.Fatal(err)
				}
			}
		}
		db.WaitIdle()
	}
	fill(db)
	db.mu.Lock()
	merges, lazies := db.levelStats[0].merges, db.levelStats[opts.Levels-1].merges
	db.mu.Unlock()
	reclaimed := db.ValueLogCounters().GCSegmentsReclaimed
	if merges == 0 || lazies == 0 || reclaimed == 0 {
		t.Fatalf("fill ran %d L0 merges, %d lazy copies, %d GC reclaims; want all > 0", merges, lazies, reclaimed)
	}
	if n := extraGoroutines(base); n > 0 {
		t.Fatalf("idle store runs %d background goroutines after a fill", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n := extraGoroutines(base); n > 0 {
		t.Fatalf("closed store runs %d background goroutines", n)
	}

	db = mustOpen(t, opts)
	fill(db)
	db, err := Recover(db.CrashForTest(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.WaitIdle()
	if n := extraGoroutines(base); n > 0 {
		t.Fatalf("recovered idle store runs %d background goroutines", n)
	}
}

// TestSerialCompactionRunsOneMergeAtATime checks the lane mapping of the
// single-thread ablation: with DisableParallelCompaction every level's
// merges share one lane, so at most one merge is ever active.
func TestSerialCompactionRunsOneMergeAtATime(t *testing.T) {
	opts := smallOpts()
	opts.Levels = 6
	opts.DisableParallelCompaction = true
	db := mustOpen(t, opts)
	defer db.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	maxActive := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.mu.Lock()
			if n := len(db.merges); n > maxActive {
				maxActive = n
			}
			db.mu.Unlock()
			runtime.Gosched()
		}
	}()
	for i := 0; i < 20000; i++ {
		k := fmt.Sprintf("key-%06d", (i*7919)%50000)
		if err := db.Put([]byte(k), []byte(fmt.Sprintf("value-%06d-%040d", i, 0))); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitIdle()
	close(stop)
	wg.Wait()

	db.mu.Lock()
	deep := db.levelStats[2].merges
	db.mu.Unlock()
	if deep == 0 {
		t.Fatalf("fill never merged L2 into L3; level tables %v", db.LevelTableCounts())
	}
	if maxActive != 1 {
		t.Fatalf("saw %d merges active at once, want exactly 1", maxActive)
	}
}
