package core

import (
	"fmt"
	"time"

	"miodb/internal/iterx"
	"miodb/internal/keys"
	"miodb/internal/pmtable"
	"miodb/internal/vaddr"
)

// compactLoop is the per-level zero-copy compaction thread (§4.5): as soon
// as its level holds two PMTables, it merges the two oldest and pushes the
// result into the level below. Levels are unbounded, so a slow merge below
// never blocks a merge above — the non-blocking parallel compaction that
// distinguishes MioDB from RocksDB-style parallel compaction.
//
// A persistent device or manifest failure latches the store degraded and
// stops the loop (reads keep being served through the version chain).
func (db *DB) compactLoop(level int) {
	defer db.wg.Done()
	for {
		db.mu.Lock()
		for !db.levelNeedsMergeLocked(level) && !db.closed && db.bgErr == nil {
			db.cond.Wait()
		}
		if db.abandon || db.bgErr != nil || (db.closed && !db.levelNeedsMergeLocked(level)) {
			db.mu.Unlock()
			return
		}
		db.mu.Unlock()
		if err := db.mergeOnce(level); err != nil {
			db.degrade(fmt.Sprintf("compaction L%d", level), err)
			return
		}
	}
}

// singleCompactLoop is the ablation counterpart: one goroutine serves
// every level round-robin, plus the lazy-copy duty.
func (db *DB) singleCompactLoop() {
	defer db.wg.Done()
	for {
		worked := false
		for level := 0; level < db.opts.Levels-1; level++ {
			db.mu.Lock()
			need := db.levelNeedsMergeLocked(level) && db.bgErr == nil
			db.mu.Unlock()
			if need {
				if err := db.mergeOnce(level); err != nil {
					db.degrade(fmt.Sprintf("compaction L%d", level), err)
					return
				}
				worked = true
			}
		}
		if worked {
			continue
		}
		db.mu.Lock()
		if db.closed || db.abandon || db.bgErr != nil {
			db.mu.Unlock()
			return
		}
		if !db.anyMergeNeededLocked() {
			db.cond.Wait()
		}
		stop := db.closed || db.abandon || db.bgErr != nil
		db.mu.Unlock()
		if stop {
			return
		}
	}
}

func (db *DB) anyMergeNeededLocked() bool {
	for level := 0; level < db.opts.Levels-1; level++ {
		if db.levelNeedsMergeLocked(level) {
			return true
		}
	}
	return false
}

// levelNeedsMergeLocked reports whether the level has two settled tables
// ready to merge (an in-flight merge in the level defers further picks).
func (db *DB) levelNeedsMergeLocked(level int) bool {
	if db.mergeActiveLocked(level) {
		return false
	}
	n := 0
	for _, e := range db.current.Load().levels[level] {
		if _, ok := e.(tableEntry); ok {
			n++
		}
	}
	return n >= 2
}

func (db *DB) mergeActiveLocked(level int) bool {
	for _, am := range db.merges {
		if am.level == level {
			return true
		}
	}
	return false
}

// mergeOnce zero-copy-merges the two oldest tables of the level and
// installs the result in the level below.
func (db *DB) mergeOnce(level int) error {
	start := time.Now()

	// Pre-gate on the device: the zero-copy merge body is raw pointer
	// migration with no failure seam of its own, so the modeled device
	// either admits the operation here or refuses it before any node
	// has moved.
	if err := db.gateNVMWrite(64); err != nil {
		return fmt.Errorf("device: %w", err)
	}

	// Pick the two oldest settled tables (the tail of the newest-first
	// list) and replace them by a merge entry readers know how to probe.
	db.mu.Lock()
	entries := db.current.Load().levels[level]
	if db.mergeActiveLocked(level) || len(entries) < 2 {
		db.mu.Unlock()
		return nil
	}
	oldE, ok1 := entries[len(entries)-1].(tableEntry)
	newE, ok2 := entries[len(entries)-2].(tableEntry)
	if !ok1 || !ok2 {
		db.mu.Unlock()
		return nil
	}
	m := pmtable.NewMerge(newE.t, oldE.t)
	// Reclamation gates (evaluated by the merge goroutine against live
	// atomics): a superseded version is physically dropped only when every
	// registered snapshot already sees the superseding write, and an entry
	// is dead only when a range tombstone no snapshot can predate covers
	// it. Both default open (horizon = MaxSeq) when no snapshot is live.
	m.Drop = func(newerSeq uint64) bool { return newerSeq <= db.snapshotHorizon() }
	m.Dead = func(key []byte, seq uint64, kind keys.Kind) bool {
		v := db.current.Load()
		if len(v.rangeDels) == 0 {
			return false
		}
		return coveredAt(v.rangeDels, key, seq, db.snapshotHorizon())
	}
	if db.vlog != nil {
		m.OnDrop = db.onEntryDrop
	}
	m.SetPersistSlot(db.manifest.region(), db.markSlots[level])
	// Clear any mark a previous merge of this level left behind before
	// the pairing becomes durable: a crash between the mergeStart record
	// and the merge's first own mark write must not resume from a stale
	// address.
	db.manifest.region().Store64(db.markSlots[level], uint64(vaddr.NilAddr))
	am := &activeMerge{level: level, merge: m, newID: newE.t.ID, oldID: oldE.t.ID}
	db.merges = append(db.merges, am)
	// Publish the merge on both tables before any node migrates, so
	// readers holding pre-merge version snapshots switch to the
	// mark-aware read protocol (see pmtable.Table.GetSafe).
	newE.t.SetActiveMerge(m)
	oldE.t.SetActiveMerge(m)
	db.editVersionLocked(func(v *version) {
		lv := v.levels[level]
		v.levels[level] = append(lv[:len(lv)-2:len(lv)-2], mergeEntry{m})
	})
	if err := db.logMergeStartLocked(level, am.newID, am.oldID); err != nil {
		// Unwind under the same mu hold: acquireVersion needs mu, so no
		// reader has observed the merge version, and no node migrated.
		for i, a := range db.merges {
			if a == am {
				db.merges = append(db.merges[:i], db.merges[i+1:]...)
				break
			}
		}
		db.editVersionLocked(func(v *version) {
			lv := v.levels[level]
			for i, e := range lv {
				if me, ok := e.(mergeEntry); ok && me.m == m {
					rest := append([]levelEntry(nil), lv[:i]...)
					rest = append(rest, newE, oldE)
					rest = append(rest, lv[i+1:]...)
					v.levels[level] = rest
					break
				}
			}
		})
		newE.t.SetActiveMerge(nil)
		oldE.t.SetActiveMerge(nil)
		db.mu.Unlock()
		return fmt.Errorf("manifest: %w", err)
	}
	db.mu.Unlock()

	var result *pmtable.Table
	var release func()
	if !db.opts.DisableZeroCopyMerge {
		result = m.Run()
	} else {
		var err error
		result, release, err = db.copyMerge(m)
		if err != nil {
			// The pair stays as a (never-started) merge entry: readers
			// probe it correctly through the merge protocol, and the
			// logged mergeStart lets recovery resume it from the cleared
			// mark. The store is about to degrade anyway.
			return fmt.Errorf("copy merge: %w", err)
		}
	}

	// Install: drop the merge entry from this level, publish the result
	// as the newest table of the next level (everything arriving from
	// above is newer than the level's current content).
	db.mu.Lock()
	for i, a := range db.merges {
		if a == am {
			db.merges = append(db.merges[:i], db.merges[i+1:]...)
			break
		}
	}
	db.editVersionLocked(func(v *version) {
		lv := v.levels[level]
		for i, e := range lv {
			if me, ok := e.(mergeEntry); ok && me.m == m {
				v.levels[level] = append(lv[:i:i], lv[i+1:]...)
				break
			}
		}
		v.levels[level+1] = append([]levelEntry{tableEntry{result}}, v.levels[level+1]...)
	})
	// The merge is over: redirect stale readers (version snapshots that
	// still hold the drained pair) to the result. Raw reads on the pair
	// would be wrong twice over — the Old skeleton's bloom filter does
	// not cover nodes migrated in from the New side (false negatives for
	// keys its list does hold), and the shared list may soon be migrating
	// again under the result's own next merge. The activeMerge pointers
	// stay set so no reader can ever observe a drained table as a plain
	// one; Merge.Get and the forward chain both land on the live result.
	m.New.SetForward(result)
	m.Old.SetForward(result)
	// The result now owns every arena; sever the drained skeletons'
	// ownership under the structural lock (manifest snapshots read
	// Regions() under the same lock).
	m.New.DropRegions()
	m.Old.DropRegions()
	db.levelStats[level].merges++
	db.levelStats[level].nodesMoved += m.Moved()
	db.levelStats[level].garbageBytes += m.Garbage()
	if err := db.logMergeDoneLocked(level, am.newID, am.oldID, tableToState(result)); err != nil {
		// In-memory state is already final and consistent for readers;
		// recovery replays the durable mergeStart and resumes the merge
		// from its persisted mark (an already-drained merge resumes as a
		// no-op). Source arenas were never released, so nothing the
		// recoverable image references is lost.
		db.mu.Unlock()
		return fmt.Errorf("manifest: %w", err)
	}
	if release != nil {
		// Copy-merge ablation: the source arenas are now unreferenced by
		// the durable manifest; queue them for release once every reader
		// version referencing the pair drains.
		db.queueReleaseLocked(release)
	}
	db.mu.Unlock()

	db.st.AddCompaction(time.Since(start))
	// Dropped pointer entries may have pushed a segment past the GC
	// threshold.
	db.kickValueLogGC()
	return nil
}

// copyMerge is the non-zero-copy ablation: physically rebuild the pair
// into a fresh arena. The returned release func frees the source arenas;
// the caller must only queue it after the merge is durably logged.
func (db *DB) copyMerge(m *pmtable.Merge) (*pmtable.Table, func(), error) {
	// Gate before building: the merging iterator is stateful, so the
	// build itself must run at most once.
	if err := db.gateNVMWrite(64); err != nil {
		return nil, nil, err
	}
	var merged iterx.Iterator = iterx.NewMerging(m.New.NewIterator(), m.Old.NewIterator())
	// Parity with the zero-copy path's Dead hook: omit range-tombstone
	//-covered entries from the rebuilt table when no registered snapshot
	// could still read them. Pinned versions keep reading the source pair.
	if dels := db.current.Load().rangeDels; len(dels) > 0 {
		horizon := db.snapshotHorizon()
		merged = iterx.NewFiltered(merged, keys.MaxSeq, func(key []byte, seq uint64) bool {
			return coveredAt(dels, key, seq, horizon)
		})
	}
	result, err := pmtable.Build(db.nvm, db.opts.ChunkSize, merged, m.New.ID, db.fp)
	if err != nil {
		return nil, nil, err
	}
	result.MinSeq, result.MaxSeq = m.Old.MinSeq, m.New.MaxSeq
	newT, oldT := m.New, m.Old
	return result, func() {
		newT.ReleaseRegions(db.nvm)
		oldT.ReleaseRegions(db.nvm)
	}, nil
}

// lazyLoop drains the last buffer level into the repository (in-memory
// mode) or into L0 SSTables on the SSD (hierarchy mode), oldest table
// first — the lazy-copy compaction of §4.4. Afterwards it releases every
// arena the absorbed table owned, once no reader version references them.
func (db *DB) lazyLoop() {
	defer db.wg.Done()
	last := db.opts.Levels - 1
	for {
		db.mu.Lock()
		for !db.lazyWorkLocked(last) && !db.closed && db.bgErr == nil {
			db.cond.Wait()
		}
		if db.abandon || db.bgErr != nil || (db.closed && !db.lazyWorkLocked(last)) {
			db.mu.Unlock()
			return
		}
		entries := db.current.Load().levels[last]
		e := entries[len(entries)-1].(tableEntry) // oldest
		db.mu.Unlock()

		if err := db.lazyOne(last, e.t); err != nil {
			db.degrade("lazy compaction", err)
			return
		}
	}
}

// lazyWorkLocked reports whether the bottom buffer level has a settled
// table to absorb.
func (db *DB) lazyWorkLocked(last int) bool {
	entries := db.current.Load().levels[last]
	if len(entries) == 0 {
		return false
	}
	_, ok := entries[len(entries)-1].(tableEntry)
	return ok
}

func (db *DB) lazyOne(last int, t *pmtable.Table) error {
	start := time.Now()
	db.mu.Lock()
	repo := db.repo
	db.mu.Unlock()
	if repo != nil {
		// Absorb is retry-safe: a re-absorbed node whose (key, seq) is
		// already present is skipped, so a transient mid-absorb failure
		// re-runs without duplicating entries.
		// Skip entries a live range tombstone covers (pinned versions keep
		// reading them through the still-referenced source table), and
		// unlink superseded repository nodes only below the snapshot
		// horizon. Both predicates read live atomics at call time.
		policy := pmtable.AbsorbPolicy{
			Skip: func(key []byte, seq uint64, kind keys.Kind) bool {
				return covered(db.current.Load().rangeDels, key, seq)
			},
			Drop: func(newerSeq uint64) bool { return newerSeq <= db.snapshotHorizon() },
		}
		if db.vlog != nil {
			policy.OnDrop = db.onEntryDrop
		}
		if err := db.runDeviceOp(func() error {
			if out := db.nvm.CheckWrite(64); out.Err != nil {
				return out.Err
			}
			return repo.AbsorbWith(t, policy)
		}); err != nil {
			return fmt.Errorf("absorb: %w", err)
		}
	} else {
		// DRAM-NVM-SSD mode: serialize the PMTable into an L0 SSTable.
		// A fresh iterator per attempt keeps the retry self-contained.
		// Range-tombstone-covered entries never reach the SSD (snapshots
		// are unsupported in this mode, so no horizon gate applies —
		// tombstones themselves stay registered forever for the entries
		// already below).
		if err := db.runDeviceOp(func() error {
			var src iterx.Iterator = t.NewIterator()
			if dead := deadFn(db.current.Load().rangeDels); dead != nil {
				src = iterx.NewFiltered(src, keys.MaxSeq, dead)
			}
			return db.ssd.FlushToL0(src)
		}); err != nil {
			return fmt.Errorf("flush to L0: %w", err)
		}
		t.MarkReclaimable()
	}

	db.mu.Lock()
	db.editVersionLocked(func(v *version) {
		lv := v.levels[last]
		for i, e := range lv {
			if te, ok := e.(tableEntry); ok && te.t == t {
				v.levels[last] = append(lv[:i:i], lv[i+1:]...)
				break
			}
		}
	})
	db.levelStats[last].merges++
	db.levelStats[last].nodesMoved += t.Count()
	db.levelStats[last].garbageBytes += t.Garbage()
	if err := db.logLazyDoneLocked(last, t.ID); err != nil {
		// The durable manifest still lists the table in its level; its
		// arenas must survive for recovery (re-absorbing on recovery is
		// harmless — see Absorb's idempotence). Leak rather than lose.
		db.mu.Unlock()
		return fmt.Errorf("manifest: %w", err)
	}
	// The paper's lazy memory freeing: every arena the absorbed table
	// accumulated across its zero-copy merges is returned at once, after
	// the last reader drains — and only now that the absorption is
	// durably logged.
	db.queueReleaseLocked(func() {
		t.ReleaseRegions(db.nvm)
	})
	db.mu.Unlock()

	if err := db.maybeCompactRepo(); err != nil {
		return err
	}
	db.st.AddCompaction(time.Since(start))
	db.kickValueLogGC()
	return nil
}

// maybeCompactRepo rebuilds the repository when superseded nodes dominate
// it, bounding the NVM footprint of update-heavy workloads. Triggering
// only when garbage exceeds 2× live data keeps the amortized extra write
// traffic below 0.5× of the updates that created the garbage.
func (db *DB) maybeCompactRepo() error {
	db.mu.Lock()
	repo := db.repo
	compacting := db.repoCompacting
	db.mu.Unlock()
	if repo == nil || compacting {
		return nil
	}
	garbage, live := repo.GarbageBytes(), repo.UserBytes()
	if garbage < 4*db.opts.MemTableSize || garbage < 2*live {
		return nil
	}
	db.mu.Lock()
	db.repoCompacting = true
	db.mu.Unlock()

	// Capture the tombstone set before rebuilding: the fresh repository
	// applies exactly these (registration is seq-ordered, so the captured
	// slice is the complete prefix up to its last seq — the basis for the
	// repoAppliedSeq bound below). The fresh object has no readers yet, so
	// coverage applies unconditionally — no horizon gate: pinned snapshots
	// keep the old repository object, and later snapshots bound at or
	// above every captured tombstone.
	dels := db.current.Load().rangeDels
	var dead func(key []byte, seq uint64, kind keys.Kind) bool
	if len(dels) > 0 {
		dead = func(key []byte, seq uint64, kind keys.Kind) bool {
			return covered(dels, key, seq)
		}
	}

	// Gate before rebuilding (retry-safe); the rebuild itself runs at
	// most once so a transient fault cannot leak half-built arenas.
	var fresh *pmtable.Repository
	var onDrop func(value []byte, kind keys.Kind)
	if db.vlog != nil {
		onDrop = db.onEntryDrop
	}
	err := db.gateNVMWrite(64)
	if err == nil {
		fresh, err = repo.CompactedWith(db.opts.ChunkSize, dead, onDrop)
	}
	if err != nil {
		// Clear the latch on the failure path too: leaving it set would
		// wedge WaitIdle and block any future rebuild for good.
		db.mu.Lock()
		db.repoCompacting = false
		db.cond.Broadcast()
		db.mu.Unlock()
		return fmt.Errorf("repo compact: %w", err)
	}

	db.mu.Lock()
	db.repoCompacting = false
	old := db.repo
	db.repo = fresh
	db.editVersionLocked(func(v *version) {
		v.repo = fresh
	})
	if err := db.logRepoSwapLocked(fresh.Region().Index(), uint64(fresh.Head())); err != nil {
		// The durable manifest still points at the old repository; it
		// must never be released (reads go through the fresh one, which
		// holds the same live content).
		db.cond.Broadcast()
		db.mu.Unlock()
		return fmt.Errorf("manifest: %w", err)
	}
	db.queueReleaseLocked(func() {
		old.Release()
	})
	if len(dels) > 0 && dels[len(dels)-1].seq > db.repoAppliedSeq {
		db.repoAppliedSeq = dels[len(dels)-1].seq
	}
	if err := db.gcRangeTombstonesLocked(); err != nil {
		db.cond.Broadcast()
		db.mu.Unlock()
		return fmt.Errorf("manifest: %w", err)
	}
	db.cond.Broadcast()
	db.mu.Unlock()
	return nil
}
