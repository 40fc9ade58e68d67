package core

import (
	"strings"
	"testing"
)

// TestCrashTorture is the randomized crash-recovery harness: dozens of
// write / crash / recover / verify cycles with injected device crashes,
// torn tails, and interrupted recoveries. See RunTorture for the checked
// invariants. Deterministic per seed — a failure reproduces exactly.
func TestCrashTorture(t *testing.T) {
	cycles := 50
	if testing.Short() {
		cycles = 12
	}
	rep, err := RunTorture(TortureConfig{Seed: 1, Cycles: cycles, Ops: 300})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpsAcked == 0 || rep.KeysChecked == 0 {
		t.Fatalf("torture run did no work: %+v", rep)
	}
	if rep.RangeDeletes == 0 {
		t.Fatalf("torture run mixed in no range deletes: %+v", rep)
	}
	t.Log(rep.String())
}

// TestCrashTortureSeeds runs shorter bursts across several seeds so the
// crash points land in different phases of the pipeline.
func TestCrashTortureSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: covered by TestCrashTorture")
	}
	for seed := int64(2); seed <= 6; seed++ {
		rep, err := RunTorture(TortureConfig{Seed: seed, Cycles: 10, Ops: 250})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d: %s", seed, rep)
	}
}

// TestCrashTortureValueLog runs the harness with key-value separation
// active: padded values straddle the threshold, value-log GC races the
// armed crash plans and runs again right after every recovery, and the
// usual sweep verifies every key — which now exercises pointer
// resolution against relocated and reclaimed segments.
func TestCrashTortureValueLog(t *testing.T) {
	cycles := 30
	if testing.Short() {
		cycles = 8
	}
	rep, err := RunTorture(TortureConfig{Seed: 7, Cycles: cycles, Ops: 300, ValueLog: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpsAcked == 0 || rep.KeysChecked == 0 {
		t.Fatalf("torture run did no work: %+v", rep)
	}
	if rep.VlogAppends == 0 {
		t.Fatalf("no values routed through the value log: %+v", rep)
	}
	if rep.VlogReclaimed == 0 {
		t.Fatalf("value-log GC reclaimed nothing across %d cycles: %+v", rep.Cycles, rep)
	}
	t.Log(rep.String())
}

// TestCrashTortureNoWAL exercises the DisableWAL configuration: acked
// updates in the DRAM buffer are legitimately lost on crash, but flushed
// state must still recover consistently and leak no regions.
func TestCrashTortureNoWAL(t *testing.T) {
	opts := tortureOpts()
	opts.DisableWAL = true
	// With no WAL, an acked write is only crash-durable once flushed;
	// the generic verifier would call every lost tail a failure. Run the
	// structural half only: write, crash, recover, check invariants.
	for seed := int64(0); seed < 3; seed++ {
		db := mustOpen(t, opts)
		for i := 0; i < 600; i++ {
			k := []byte{byte(i), byte(i >> 8), byte(seed)}
			if err := db.Put(k, k); err != nil {
				t.Fatal(err)
			}
		}
		img := db.CrashForTest()
		db2, err := Recover(img, opts)
		if err != nil {
			t.Fatalf("seed %d: recover: %v", seed, err)
		}
		db2.WaitIdle()
		if err := db2.CheckConsistency(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := db2.CheckRegionAccounting(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		db2.Close()
	}
}

// TestTortureErrorNamesReproduction checks that a failed run reports what
// reproduces it. An SSD-mode store cannot be recovered, so the first
// cycle's recovery fails.
func TestTortureErrorNamesReproduction(t *testing.T) {
	opts := tortureOpts()
	opts.SSD = &SSDOptions{}
	_, err := RunTorture(TortureConfig{Seed: 3, Cycles: 2, Ops: 50, Opts: &opts})
	if err == nil {
		t.Fatal("torture of an unrecoverable store passed")
	}
	msg := err.Error()
	for _, want := range []string{"seed 3,", "cycle 0,", "value log false", "recover"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not name %q", msg, want)
		}
	}
	if !strings.Contains(msg, "crash byte budget ") && !strings.Contains(msg, "crash op count ") && !strings.Contains(msg, "crash clean,") {
		t.Errorf("error %q does not name the cycle's crash mode", msg)
	}
}
