package core

import (
	"miodb/internal/keys"
	"miodb/internal/vlog"
)

// Value-log garbage collection (DESIGN.md §14).
//
// A sealed segment whose advisory dead ratio crosses the configured
// threshold is reclaimed in three steps:
//
//  1. Pre-scan: walk the segment under a reader pin and collect entries
//     that are still live — the LSM's newest version of their key is a
//     pointer naming exactly this address and no range tombstone covers
//     it.
//  2. Relocate: for each collected entry, under commitMu, recheck
//     liveness (commits are serialized by commitMu, so the recheck
//     cannot be raced) and re-commit the value through the normal write
//     pipeline: value bytes appended to the active segment, then a WAL
//     pointer record at a fresh sequence number, then the memtable
//     insert. Live readers see the same value throughout; the old
//     address becomes dead.
//  3. Free: once no entry in the segment is live, log a manifest free
//     record (after a crash the segment stays gone — every surviving
//     pointer record for its keys is shadowed by the relocation's newer
//     one) and queue the in-memory free on the version chain. The free
//     runs only when the current version and every older one have
//     drained: any snapshot whose bound predates a relocation pinned an
//     older version, so it keeps resolving the old address against
//     intact segment data until it closes. That is the epoch protection
//     — a pointer can never resolve into a reclaimed segment.
//
// New pointers into a sealed segment cannot appear (appends and
// relocations only target the active segment), so the pre-scan's live
// set can only shrink before step 2's recheck.

// kickValueLogGC nudges the GC loop (non-blocking). Compaction drops
// call it. The kick is recorded under db.mu before it is sent, so
// WaitIdle never sees the store idle between a kick and the round that
// serves it.
func (db *DB) kickValueLogGC() {
	if db.vlog == nil {
		return
	}
	db.mu.Lock()
	db.vlogGCKicked = true
	db.mu.Unlock()
	select {
	case db.vlogKick <- struct{}{}:
	default:
	}
}

// stopValueLogGC latches the GC stop channel closed (idempotent across
// Close and CrashForTest).
func (db *DB) stopValueLogGC() {
	if db.vlog == nil {
		return
	}
	db.stopVlog.Do(func() { close(db.vlogStop) })
}

// vlogGCLoop runs in the background and reclaims eligible segments
// whenever compaction activity kicks it.
func (db *DB) vlogGCLoop() {
	defer db.wg.Done()
	for {
		select {
		case <-db.vlogStop:
			return
		case <-db.vlogKick:
		}
		db.mu.Lock()
		db.vlogGCKicked = false
		db.vlogGCRunning = true
		db.mu.Unlock()
		// Errors are sticky elsewhere (degraded mode) or transient to this
		// round; either way the loop keeps serving later kicks.
		_, _ = db.RunValueLogGC()
		db.mu.Lock()
		db.vlogGCRunning = false
		db.cond.Broadcast()
		db.mu.Unlock()
	}
}

// RunValueLogGC reclaims value-log segments until none qualifies: every
// sealed segment whose dead-space ratio is at or above the configured
// GCDeadRatio has its live values relocated through the write path and
// its memory queued for epoch-deferred release. It returns the number of
// segments reclaimed. Tests and the torture harness call it directly for
// deterministic GC placement; the background loop calls it on compaction
// kicks. Safe to call concurrently with reads, writes, and snapshots.
func (db *DB) RunValueLogGC() (int, error) {
	if db.vlog == nil {
		return 0, nil
	}
	freed := 0
	for {
		select {
		case <-db.vlogStop:
			return freed, nil
		default:
		}
		id, ok := db.vlog.PickGC()
		if !ok {
			return freed, nil
		}
		if err := db.gcSegment(id); err != nil {
			return freed, err
		}
		freed++
	}
}

// gcSegment relocates the live entries of one segment and frees it.
func (db *DB) gcSegment(id uint32) error {
	// Pre-scan under a reader pin: collect copies of the still-live
	// entries. Slices yielded by Scan alias log storage, and relocation
	// appends could (for the active segment) never touch them — but the
	// entries outlive the pin, so copy.
	var entries []vlog.Entry
	pin := db.acquireVersion()
	err := db.vlog.Scan(id, func(e vlog.Entry) bool {
		if db.vlogEntryLive(pin.v, e) {
			entries = append(entries, vlog.Entry{
				Key:   append([]byte(nil), e.Key...),
				Value: append([]byte(nil), e.Value...),
				Seq:   e.Seq,
				Addr:  e.Addr,
			})
		}
		return true
	})
	db.releaseVersion(pin)
	if err != nil {
		return err
	}

	for _, e := range entries {
		select {
		case <-db.vlogStop:
			return nil
		default:
		}
		db.commitMu.Lock()
		rerr := db.relocateLocked(e)
		db.commitMu.Unlock()
		if rerr != nil {
			// Closed, degraded, or a device fault: leave the segment in
			// place — a half-relocated segment is fully consistent (the
			// moved entries are dead, the rest still referenced).
			return rerr
		}
	}

	// Every entry is now dead. Claim the segment — the free stays queued on
	// the version chain for a while, and PickGC must not re-offer it (nor
	// may a concurrent GC runner free it twice).
	if !db.vlog.Condemn(id) {
		return nil
	}
	// Make the free durable, then defer the in-memory reclamation onto the
	// version chain (see file comment).
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed || db.abandon || db.bgErr != nil {
		return nil
	}
	if err := db.logVlogFreeLocked(id); err != nil {
		db.degradeLocked("vlog free", err)
		return err
	}
	segID := id
	db.queueReleaseLocked(func() { db.vlog.Free(segID) })
	return nil
}

// vlogEntryLive reports whether the LSM structure, as seen through v,
// still references the log entry e: the newest version of e.Key must be
// a pointer naming exactly e.Addr and not be covered by a range
// tombstone.
func (db *DB) vlogEntryLive(v *version, e vlog.Entry) bool {
	value, seq, kind, ok := db.rawNewest(v, e.Key)
	if !ok || kind != keys.KindValuePtr {
		return false
	}
	a, ok := vlog.DecodeAddr(value)
	if !ok || a != e.Addr {
		return false
	}
	return !covered(v.rangeDels, e.Key, seq)
}

// rawNewest is getFrom's probe order without resolution or tombstone
// filtering: the newest raw entry for key reachable through v.
func (db *DB) rawNewest(v *version, key []byte) ([]byte, uint64, keys.Kind, bool) {
	if value, seq, kind, ok := v.mem.mt.Get(key); ok {
		return value, seq, kind, true
	}
	for _, imm := range v.imms {
		if value, seq, kind, ok := imm.mt.Get(key); ok {
			return value, seq, kind, true
		}
	}
	for _, level := range v.levels {
		for _, e := range level {
			if !e.mayContain(key) {
				continue
			}
			if value, seq, kind, ok := e.get(key); ok {
				return value, seq, kind, true
			}
		}
	}
	if v.repo != nil {
		if value, seq, kind, ok := v.repo.Get(key); ok {
			return value, seq, kind, true
		}
	}
	if db.ssd != nil {
		if value, seq, kind, ok := db.ssd.Get(key); ok {
			return value, seq, kind, true
		}
	}
	return nil, 0, 0, false
}

// relocateLocked re-commits one live log entry under a fresh sequence
// number: value bytes into the active segment, WAL pointer record,
// memtable insert — the same durability order as a client write. Callers
// hold commitMu. Relocations charge the device meters (they are real
// write amplification) but not the user-byte or op counters.
func (db *DB) relocateLocked(e vlog.Entry) error {
	if err := db.writeGate(); err != nil {
		return err
	}
	if err := db.makeRoomForWrite(); err != nil {
		return err
	}
	v := db.current.Load()
	// Recheck under commitMu: a client commit may have superseded or
	// deleted the key since the pre-scan. Once live here, nothing can
	// supersede it before our own insert — commits hold commitMu.
	if !db.vlogEntryLive(v, e) {
		return nil
	}
	mem := v.mem
	seq := db.seq.Load() + 1
	addr, err := db.vlog.Append(e.Key, e.Value, seq)
	if err != nil {
		db.seq.Store(seq) // the seq is stamped in the log: burn it
		return err
	}
	ptr := addr.Encode(nil)
	if mem.log != nil {
		if err := mem.log.Append(e.Key, ptr, seq, keys.KindValuePtr); err != nil {
			db.seq.Store(seq)
			if mem.log.Poisoned() {
				db.degrade("wal append", err)
			}
			return err
		}
	}
	if err := mem.mt.Add(e.Key, ptr, seq, keys.KindValuePtr); err != nil {
		db.seq.Store(seq)
		return err
	}
	db.seq.Store(seq)
	if mem.minSeq == 0 {
		mem.minSeq = seq
	}
	mem.maxSeq = seq
	db.vlog.MarkDead(e.Addr)
	db.vlog.AddRelocation(int64(len(e.Value)))
	return nil
}

// onEntryDrop is the compaction drop hook: a merge, absorb, or rebuild
// physically dropped a superseded/covered entry. Pointer entries feed
// the advisory dead-byte accounting that steers GC candidate selection.
func (db *DB) onEntryDrop(value []byte, kind keys.Kind) {
	if kind != keys.KindValuePtr || db.vlog == nil {
		return
	}
	if a, ok := vlog.DecodeAddr(value); ok {
		db.vlog.MarkDead(a)
	}
}

// ValueLogEnabled reports whether key-value separation is active — the
// kvstore.ValueLogger capability probe.
func (db *DB) ValueLogEnabled() bool { return db.vlog != nil }

// ValueLogCounters returns the value log's accounting (zero when
// separation is off).
func (db *DB) ValueLogCounters() vlog.Counters {
	if db.vlog == nil {
		return vlog.Counters{}
	}
	return db.vlog.Counters()
}
