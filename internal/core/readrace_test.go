package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// raceValue renders the self-validating value for key k at generation g:
// it embeds the key, so a Get that returned bytes from a released or
// recycled arena is detected by content, not just by -race.
func raceValue(k string, g int) []byte {
	return []byte(fmt.Sprintf("VAL[%s]gen%06d-%s", k, g, "padpadpadpadpadpadpadpadpadpad"))
}

// checkRaceValue asserts v is a well-formed value for key k (any
// generation — readers race writers, so any committed generation is
// acceptable; a torn or foreign value is not).
func checkRaceValue(t *testing.T, k string, v []byte) {
	t.Helper()
	prefix := []byte(fmt.Sprintf("VAL[%s]gen", k))
	if !bytes.HasPrefix(v, prefix) {
		t.Errorf("Get(%s) returned foreign/corrupt value %q", k, v)
	}
}

// runReadRace hammers one DB with concurrent readers (Get/Scan/
// NewIterator) against writers driving flushes, zero-copy merges, lazy
// compaction, and repository garbage rebuilds. Every value read is
// validated against its key, so a value served from a released arena —
// the failure mode the epoch grace period exists to prevent — fails the
// test even without -race.
func runReadRace(t *testing.T, opts Options) {
	db := mustOpen(t, opts)

	const (
		keyCount = 96
		writers  = 3
		readers  = 4
		scanners = 2
		duration = 400 * time.Millisecond
	)
	key := func(i int) string { return fmt.Sprintf("rr-%04d", i%keyCount) }

	// Seed every key so readers never hit ErrNotFound.
	for i := 0; i < keyCount; i++ {
		if err := db.Put([]byte(key(i)), raceValue(key(i), 0)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers+scanners)

	// Writers: overwrite the key space continuously. The small memtable
	// keeps rotations, flushes, per-level merges, lazy compaction, and —
	// once garbage accumulates — the repository rebuild all churning
	// underneath the readers.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for g := 1; !stop.Load(); g++ {
				k := key(g*7 + w)
				if err := db.Put([]byte(k), raceValue(k, g)); err != nil {
					errCh <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !stop.Load(); i++ {
				k := key(i * 13)
				v, err := db.Get([]byte(k))
				if err != nil {
					errCh <- fmt.Errorf("reader %d Get(%s): %w", r, k, err)
					return
				}
				checkRaceValue(t, k, v)
			}
		}(r)
	}

	// Scanners: iterate through merging/mid-flush structure; every pair
	// observed must be self-consistent. Scans hold their version pin for
	// the whole pass, so they exercise long-lived epoch pins against the
	// sweep.
	for sc := 0; sc < scanners; sc++ {
		wg.Add(1)
		go func(sc int) {
			defer wg.Done()
			for !stop.Load() {
				err := db.Scan([]byte("rr-"), keyCount, func(k, v []byte) bool {
					checkRaceValue(t, string(k), v)
					return true
				})
				if err != nil {
					errCh <- fmt.Errorf("scanner %d: %w", sc, err)
					return
				}
			}
		}(sc)
	}

	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Quiesce and audit: the consistency fsck, then the zero-leak region
	// accounting — the sweep must have run every deferred release (arena
	// frees, WAL regions) despite all the reader pins that were in flight.
	db.WaitIdle()
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckRegionAccounting(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadRaceEpoch is the lock-free read path's race-regression test:
// Get/Scan against flush, zero-copy merges, lazy compaction, and repo
// rebuilds, with every value validated against its key. Run under -race.
func TestReadRaceEpoch(t *testing.T) {
	runReadRace(t, smallOpts())
}

// TestGetCloseRace exercises the Close-vs-reader seam: readers hammer
// Get/Scan/NewIterator while Close tears the store down. Every read must
// either succeed with a valid value or fail with ErrClosed — never crash,
// and never observe torn-down state — and Close must wait for the reader
// epochs to drain before returning.
func TestGetCloseRace(t *testing.T) {
	// Subtest named for the read path it exercises: the epoch pin.
	t.Run("epoch", func(t *testing.T) {
		db := mustOpen(t, smallOpts())

		const keyCount = 64
		key := func(i int) string { return fmt.Sprintf("cl-%04d", i%keyCount) }
		for i := 0; i < keyCount; i++ {
			if err := db.Put([]byte(key(i)), raceValue(key(i), 0)); err != nil {
				t.Fatal(err)
			}
		}

		var wg sync.WaitGroup
		start := make(chan struct{})
		const readers = 6
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				<-start
				for i := 0; ; i++ {
					k := key(i*3 + r)
					v, err := db.Get([]byte(k))
					if err == ErrClosed {
						return
					}
					if err != nil {
						t.Errorf("reader %d: Get(%s): %v", r, k, err)
						return
					}
					checkRaceValue(t, k, v)
					if i%17 == 0 {
						it := db.NewIterator()
						if it.Err() == ErrClosed {
							it.Close()
							return
						}
						it.SeekToFirst()
						if it.Valid() {
							checkRaceValue(t, string(it.Key()), it.Value())
						}
						it.Close()
					}
				}
			}(r)
		}
		close(start)
		time.Sleep(10 * time.Millisecond)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		// After Close returns, the epoch buckets must be fully drained:
		// any straggler reader would still be announced.
		wg.Wait()
		if !db.readersQuiescent() {
			t.Fatal("Close returned with reader epochs still announced")
		}
		if _, err := db.Get([]byte(key(0))); err != ErrClosed {
			t.Fatalf("Get after Close = %v, want ErrClosed", err)
		}
		if it := db.NewIterator(); it.Err() != ErrClosed {
			t.Fatalf("NewIterator after Close Err() = %v, want ErrClosed", it.Err())
		}
	})
}

// TestCloseWaitsForIterator pins a version through an open iterator and
// verifies Close blocks until the iterator is closed — the "leaked
// iterator blocks Close by design" contract.
func TestCloseWaitsForIterator(t *testing.T) {
	db := mustOpen(t, smallOpts())
	for i := 0; i < 32; i++ {
		if err := db.Put([]byte(fmt.Sprintf("it-%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	it := db.NewIterator()
	it.SeekToFirst()
	if !it.Valid() {
		t.Fatal("iterator empty")
	}

	closed := make(chan struct{})
	go func() {
		db.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while an iterator still pinned a version")
	case <-time.After(50 * time.Millisecond):
	}
	it.Close()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the last iterator closed")
	}
}
