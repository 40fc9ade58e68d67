package core

import (
	"fmt"
	"testing"
)

// TestEpochSweepDrainsChain verifies the core reclamation property: with
// no reader pinned, every structural edit's synchronous sweep keeps the
// version chain at length 1, and the retired versions are accounted as
// swept.
func TestEpochSweepDrainsChain(t *testing.T) {
	db := mustOpen(t, smallOpts())
	defer db.Close()

	for i := 0; i < 20; i++ {
		db.mu.Lock()
		db.editVersionLocked(func(*version) {})
		db.mu.Unlock()
	}
	live, pending, epoch := db.versionChainGauge()
	if live != 1 {
		t.Fatalf("live versions = %d, want 1 (quiescent sweep should drain)", live)
	}
	if pending != 0 {
		t.Fatalf("pending releases = %d, want 0", pending)
	}
	if epoch < firstEpoch {
		t.Fatalf("epoch = %d, below firstEpoch", epoch)
	}
	if st := db.Stats(); st.VersionsSwept < 20 {
		t.Fatalf("VersionsSwept = %d, want >= 20", st.VersionsSwept)
	}
}

// TestEpochPinBlocksSweep verifies the grace period: a version pinned by
// a reader (an open iterator) must survive edits, and its deferred
// releases must not run until the pin exits.
func TestEpochPinBlocksSweep(t *testing.T) {
	db := mustOpen(t, smallOpts())
	defer db.Close()
	if err := db.Put([]byte("pin-key"), []byte("pin-val")); err != nil {
		t.Fatal(err)
	}

	it := db.NewIterator() // pins the current version
	released := false
	db.mu.Lock()
	db.queueReleaseLocked(func() { released = true })
	// Retire the pinned version and churn several more edits: the sweep
	// must stop at the pinned snapshot every time.
	for i := 0; i < 5; i++ {
		db.editVersionLocked(func(*version) {})
	}
	db.mu.Unlock()

	if released {
		t.Fatal("releaseFn ran while a reader still pinned the version")
	}
	live, pending, _ := db.versionChainGauge()
	if live < 2 {
		t.Fatalf("live versions = %d, want >= 2 while pinned", live)
	}
	if pending < 1 {
		t.Fatalf("pending releases = %d, want >= 1 while pinned", pending)
	}

	it.Close() // exit the pin; the next sweep may reclaim everything
	db.mu.Lock()
	db.editVersionLocked(func(*version) {})
	db.mu.Unlock()
	if !released {
		t.Fatal("releaseFn did not run after the pin exited")
	}
	if live, _, _ := db.versionChainGauge(); live != 1 {
		t.Fatalf("live versions = %d after pin exit, want 1", live)
	}
}

// TestEpochAdvanceBlockedByOldBucket pins a reader and verifies the
// epoch can advance at most once (past the reader's entry epoch it may
// not go): advancing e→e+1 needs bucket (e-1)%3 empty, and the reader
// occupies its entry bucket until it exits.
func TestEpochAdvanceBlockedByOldBucket(t *testing.T) {
	db := mustOpen(t, smallOpts())
	defer db.Close()

	pin := db.acquireVersion()
	e0 := db.epoch.Load()
	// One advance may succeed (the reader entered at e0, bucket (e0-1)%3
	// may be empty); the second must fail while the pin occupies e0%3.
	db.tryAdvanceEpoch()
	if db.tryAdvanceEpoch() {
		t.Fatalf("epoch advanced twice past a pinned reader (entry epoch %d, now %d)", e0, db.epoch.Load())
	}
	if got := db.epoch.Load(); got > e0+1 {
		t.Fatalf("epoch = %d, want <= %d while reader pinned at %d", got, e0+1, e0)
	}
	db.releaseVersion(pin)
	if !db.tryAdvanceEpoch() {
		t.Fatal("epoch failed to advance after the reader exited")
	}
}

// TestVersionChainGaugeUnderPins cross-checks the Stats() plumbing: the
// gauge must report the chain the pins actually hold.
func TestVersionChainGaugeUnderPins(t *testing.T) {
	db := mustOpen(t, smallOpts())
	defer db.Close()
	for i := 0; i < 8; i++ {
		if err := db.Put([]byte(fmt.Sprintf("g-%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.LiveVersions < 1 {
		t.Fatalf("LiveVersions = %d, want >= 1", st.LiveVersions)
	}
	if st.ReadEpoch < firstEpoch {
		t.Fatalf("ReadEpoch = %d, want >= %d", st.ReadEpoch, firstEpoch)
	}
}

// TestBloomCountersMeasureReads verifies the per-level read counters:
// hits for present keys, skips for absent ones, and internal consistency
// (skips+fps never exceed probes).
func TestBloomCountersMeasureReads(t *testing.T) {
	// Subtest named for the read path it exercises: the epoch pin.
	t.Run("epoch", func(t *testing.T) {
		db := mustOpen(t, smallOpts())
		defer db.Close()

		const n = 600
		for i := 0; i < n; i++ {
			if err := db.Put([]byte(fmt.Sprintf("bl-%05d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		db.WaitIdle()
		for i := 0; i < n; i++ {
			if _, err := db.Get([]byte(fmt.Sprintf("bl-%05d", i))); err != nil {
				t.Fatalf("Get(bl-%05d): %v", i, err)
			}
		}
		for i := 0; i < n; i++ {
			if _, err := db.Get([]byte(fmt.Sprintf("zz-%05d", i))); err != ErrNotFound {
				t.Fatalf("Get(zz-%05d) = %v, want ErrNotFound", i, err)
			}
		}
		st := db.Stats()
		if st.BloomProbes == 0 {
			t.Fatal("no bloom probes recorded despite buffered tables")
		}
		if st.BloomSkips == 0 {
			t.Fatal("no bloom skips recorded despite absent-key reads")
		}
		if st.BloomSkips+st.BloomFalsePositives > st.BloomProbes {
			t.Fatalf("skips %d + fps %d > probes %d",
				st.BloomSkips, st.BloomFalsePositives, st.BloomProbes)
		}
		var hits int64
		for _, bl := range st.BloomLevels {
			hits += bl.Hits
		}
		if hits == 0 {
			t.Fatal("no level hits recorded despite present-key reads")
		}
		if st.BloomFalsePositiveRate < 0 || st.BloomFalsePositiveRate > 1 {
			t.Fatalf("FP rate = %v out of range", st.BloomFalsePositiveRate)
		}
	})
}

// TestRegionAccountingAfterReads ensures the epoch sweep leaks nothing:
// after a churny read/write workload quiesces, every region is reachable
// from the final version.
func TestRegionAccountingAfterReads(t *testing.T) {
	db := mustOpen(t, smallOpts())
	defer db.Close()
	for i := 0; i < 3000; i++ {
		k := []byte(fmt.Sprintf("ra-%04d", i%500))
		if err := db.Put(k, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			if _, err := db.Get(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.WaitIdle()
	if err := db.CheckRegionAccounting(); err != nil {
		t.Fatal(err)
	}
}
