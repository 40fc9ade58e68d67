package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"miodb/internal/vlog"
)

// vlogOpts is smallOpts with key-value separation on: a low threshold and
// tiny segments so short tests create, fill, and reclaim many segments.
func vlogOpts() Options {
	o := smallOpts()
	o.ValueLog = &ValueLogOptions{Threshold: 256, SegmentSize: 8 << 10}
	return o
}

// bigVal builds a deterministic value of n bytes, tagged so misdirected
// reads fail loudly.
func bigVal(tag string, n int) []byte {
	v := make([]byte, n)
	copy(v, tag)
	for i := len(tag); i < n; i++ {
		v[i] = byte('a' + (i+len(tag))%23)
	}
	return v
}

func TestValueLogSeparatesLargeValues(t *testing.T) {
	db := mustOpen(t, vlogOpts())
	defer db.Close()

	small := []byte("tiny")
	large := bigVal("large-0", 4<<10)
	if err := db.Put([]byte("small"), small); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("large"), large); err != nil {
		t.Fatal(err)
	}

	c := db.ValueLogCounters()
	if c.Appends != 1 {
		t.Fatalf("vlog appends = %d, want exactly the one above-threshold value", c.Appends)
	}
	if v, err := db.Get([]byte("small")); err != nil || !bytes.Equal(v, small) {
		t.Fatalf("Get(small) = %q, %v", v, err)
	}
	if v, err := db.Get([]byte("large")); err != nil || !bytes.Equal(v, large) {
		t.Fatalf("Get(large) mismatch (err %v)", err)
	}

	// The resolved value must be a private copy, not an alias of NVM.
	v, _ := db.Get([]byte("large"))
	v[0] = 'X'
	if v2, _ := db.Get([]byte("large")); !bytes.Equal(v2, large) {
		t.Fatal("resolved value aliases log storage")
	}
}

func TestValueLogFullPipeline(t *testing.T) {
	// Enough separated values to force flushes, merges through every
	// level, and lazy copies — pointers must survive the whole pipeline
	// and resolve at every read surface.
	db := mustOpen(t, vlogOpts())
	defer db.Close()

	golden := map[string]string{}
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 800; i++ {
		k := fmt.Sprintf("key%04d", rnd.Intn(300))
		v := bigVal(k, 300+rnd.Intn(700))
		if err := db.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		golden[k] = string(v)
	}
	db.WaitIdle()

	for k, want := range golden {
		v, err := db.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("Get(%s) err=%v len=%d want len=%d", k, err, len(v), len(want))
		}
	}

	// Iterator surface resolves too.
	seen := 0
	it := db.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if want, ok := golden[string(it.Key())]; !ok || string(it.Value()) != want {
			t.Fatalf("iterator mismatch at %q", it.Key())
		}
		seen++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if seen != len(golden) {
		t.Fatalf("iterator saw %d keys, want %d", seen, len(golden))
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitIdleCoversValueLogGC kicks a background GC round and checks
// that WaitIdle waits it out: a round still holding its pre-scan pin or
// relocating values would leave the version chain undrained.
func TestWaitIdleCoversValueLogGC(t *testing.T) {
	db := mustOpen(t, vlogOpts())
	defer db.Close()
	for round := 0; round < 40; round++ {
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("wi%03d", i)
			if err := db.Put([]byte(k), bigVal(fmt.Sprintf("%s-r%d", k, round), 1<<10)); err != nil {
				t.Fatal(err)
			}
		}
		db.kickValueLogGC()
		db.WaitIdle()
		if err := db.CheckRegionAccounting(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if db.ValueLogCounters().GCSegmentsReclaimed == 0 {
		t.Fatal("background GC reclaimed nothing")
	}
}

func TestValueLogGCReclaimsAndPreservesLiveValues(t *testing.T) {
	db := mustOpen(t, vlogOpts())
	defer db.Close()

	// Overwrite a small key set many times: every superseded pointer is
	// dead in the log, so segments cross the GC threshold as compaction
	// reports the drops.
	const keys = 20
	golden := map[string]string{}
	for round := 0; round < 30; round++ {
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("gc%03d", i)
			v := bigVal(fmt.Sprintf("%s-r%d", k, round), 1<<10)
			if err := db.Put([]byte(k), v); err != nil {
				t.Fatal(err)
			}
			golden[k] = string(v)
		}
	}
	db.WaitIdle()

	// The background loop may already have reclaimed on compaction kicks;
	// the explicit run picks up any remaining candidates. Either way the
	// counters must show reclamation happened.
	if _, err := db.RunValueLogGC(); err != nil {
		t.Fatal(err)
	}
	c := db.ValueLogCounters()
	if c.GCSegmentsReclaimed == 0 {
		t.Fatalf("GC reclaimed nothing from a 30x-overwritten working set: %+v", c)
	}

	for k, want := range golden {
		v, err := db.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("Get(%s) after GC: err=%v", k, err)
		}
	}
	db.WaitIdle()
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckRegionAccounting(); err != nil {
		t.Fatal(err)
	}
}

func TestValueLogGCRespectsSnapshots(t *testing.T) {
	db := mustOpen(t, vlogOpts())
	defer db.Close()

	k := []byte("pinned")
	v1 := bigVal("v1", 2<<10)
	if err := db.Put(k, v1); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	// Supersede v1 repeatedly so its segment becomes a GC candidate, then
	// force GC. The snapshot must keep reading v1 throughout: the segment
	// free is epoch-deferred past the pinned version.
	for i := 0; i < 40; i++ {
		if err := db.Put(k, bigVal(fmt.Sprintf("v%d", i+2), 2<<10)); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitIdle()
	if _, err := db.RunValueLogGC(); err != nil {
		t.Fatal(err)
	}
	got, err := snap.Get(k)
	if err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("snapshot read after GC: err=%v (len %d, want %d)", err, len(got), len(v1))
	}
}

func TestValueLogCrashRecovery(t *testing.T) {
	opts := vlogOpts()
	db := mustOpen(t, opts)

	golden := map[string]string{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("rec%03d", i%40)
		v := bigVal(fmt.Sprintf("%s-i%d", k, i), 600)
		if err := db.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		golden[k] = string(v)
	}
	// Exercise GC before the crash so freed segments are part of the
	// recovered state.
	db.WaitIdle()
	if _, err := db.RunValueLogGC(); err != nil {
		t.Fatal(err)
	}

	img := db.CrashForTest()
	re, err := Recover(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for k, want := range golden {
		v, err := re.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("Get(%s) after recovery: err=%v", k, err)
		}
	}
	// And the recovered store keeps working: new separated writes, GC.
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("rec%03d", i%40)
		v := bigVal(fmt.Sprintf("%s-post%d", k, i), 600)
		if err := re.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		golden[k] = string(v)
	}
	re.WaitIdle()
	if _, err := re.RunValueLogGC(); err != nil {
		t.Fatal(err)
	}
	for k, want := range golden {
		v, err := re.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("Get(%s) after post-recovery writes: err=%v", k, err)
		}
	}
}

func TestValueLogRecoveryOptionMismatch(t *testing.T) {
	opts := vlogOpts()
	db := mustOpen(t, opts)
	if err := db.Put([]byte("k"), bigVal("k", 2<<10)); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()
	img := db.CrashForTest()

	// Disabling separation over an image holding segments must refuse, not
	// serve dangling pointers.
	noVlog := opts
	noVlog.ValueLog = nil
	if _, err := Recover(img, noVlog); err == nil {
		t.Fatal("recovery with ValueLog disabled accepted an image holding segments")
	}
	if re, err := Recover(img, opts); err != nil {
		t.Fatal(err)
	} else {
		re.Close()
	}
}

func TestValueLogOnSSDRefusals(t *testing.T) {
	opts := vlogOpts()
	opts.ValueLog.OnSSD = true
	db := mustOpen(t, opts)
	defer db.Close()
	large := bigVal("ssd", 4<<10)
	if err := db.Put([]byte("k"), large); err != nil {
		t.Fatal(err)
	}
	if v, err := db.Get([]byte("k")); err != nil || !bytes.Equal(v, large) {
		t.Fatalf("Get over SSD vlog: %v", err)
	}
	if c := db.ValueLogCounters(); c.Appends != 1 {
		t.Fatalf("appends = %d", c.Appends)
	}
	if err := db.Checkpoint(t.TempDir() + "/img"); err == nil {
		t.Fatal("checkpoint of SSD-resident value log accepted")
	}
	if _, err := Recover(&CrashImage{}, opts); err == nil {
		t.Fatal("recovery of SSD-resident value log accepted")
	}
}

func TestValueLogNilMatchesInline(t *testing.T) {
	// The nil-options arm must be byte-for-byte the inline engine. A store
	// with separation enabled but an unreachable threshold performs the
	// identical write-path work (no segment is ever created), so the NVM
	// write traffic must match exactly; and the nil arm must report no
	// value-log activity at all. The memtable is sized so nothing flushes:
	// background merge scheduling is timing-dependent, but the WAL and
	// manifest traffic the write path itself emits is deterministic.
	inert := func(o Options) Options {
		o.MemTableSize = 4 << 20
		return o
	}
	workload := func(db *DB) int64 {
		rnd := rand.New(rand.NewSource(3))
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("k%04d", rnd.Intn(200))
			if err := db.Put([]byte(k), bigVal(k, 512)); err != nil {
				panic(err)
			}
		}
		db.WaitIdle()
		s := db.Stats()
		for _, d := range s.Devices {
			if d.Name == "nvm" {
				return d.BytesWritten
			}
		}
		return -1
	}

	base := mustOpen(t, inert(smallOpts()))
	baseWritten := workload(base)
	if s := base.Stats(); s.ValueLog.Enabled || s.ValueLog.Appends != 0 {
		t.Fatalf("nil ValueLog reports activity: %+v", s.ValueLog)
	}
	if c := base.ValueLogCounters(); c != (vlog.Counters{}) {
		t.Fatalf("nil ValueLog counters non-zero: %+v", c)
	}
	base.Close()

	hi := inert(smallOpts())
	hi.ValueLog = &ValueLogOptions{Threshold: 1 << 30}
	sep := mustOpen(t, hi)
	sepWritten := workload(sep)
	if c := sep.ValueLogCounters(); c.Appends != 0 || c.Segments != 0 {
		t.Fatalf("unreachable threshold created segments: %+v", c)
	}
	sep.Close()

	if baseWritten != sepWritten {
		t.Fatalf("inline arm wrote %d NVM bytes, unreachable-threshold arm %d — separation is not inert",
			baseWritten, sepWritten)
	}
}
