package core

import "fmt"

// Background work runs as jobs on lanes (DESIGN.md §5). A lane runs one
// job at a time:
//
//   - lane 0 flushes the oldest immutable memtable (§4.2);
//   - lane 1+i zero-copy-merges level i (§4.5) — levels are unbounded, so
//     a slow merge below never blocks one above; DisableParallelCompaction
//     maps every level onto lane 1 instead, served round-robin;
//   - lane Levels lazily copies the bottom buffer level into the
//     repository or the SSD tier (§4.4), and rebuilds the repository when
//     garbage dominates it;
//   - lane Levels+1 runs value-log GC rounds (DESIGN.md §14).
//
// scheduleLocked starts every runnable job whose lane is free, and it
// runs at every point where work can appear: after each version edit,
// after each job, and once the store opens. So no job running means
// nothing left to do — the condition WaitIdle waits for.

const laneFlush = 0

func (db *DB) mergeLane(level int) int {
	if db.opts.DisableParallelCompaction {
		return 1
	}
	return 1 + level
}

func (db *DB) lazyLane() int { return db.opts.Levels }

func (db *DB) gcLane() int { return db.opts.Levels + 1 }

// startBackground opens the lanes. Open and Recover call it last, so no
// job can race recovery (orphan collection frees every region the
// recovered state does not reference, including ones a flush would
// allocate).
func (db *DB) startBackground() {
	db.mu.Lock()
	db.lanes = make([]bool, db.opts.Levels+2)
	db.scheduleLocked()
	db.mu.Unlock()
}

// scheduleLocked starts a job for each lane that is free and has work.
// Nothing starts before startBackground, after a simulated crash, or once
// the store has degraded. A closed store keeps draining its flushes,
// merges and lazy copies, but starts no GC round. Callers hold db.mu.
func (db *DB) scheduleLocked() {
	if db.lanes == nil || db.abandon || db.bgErr != nil {
		return
	}
	v := db.current.Load()
	if n := len(v.imms); n > 0 && !db.lanes[laneFlush] {
		h := v.imms[n-1] // oldest
		db.startLocked(laneFlush, "flush", func() error { return db.flushOne(h) })
	}
	// Start the scan after the level merged last, so a shared merge lane
	// serves the levels round-robin instead of starving the deeper ones.
	merging, first := len(v.levels)-1, db.mergeNext
	for i := 0; i < merging; i++ {
		level := (first + i) % merging
		lane := db.mergeLane(level)
		if !db.lanes[lane] && db.levelNeedsMergeLocked(level) {
			db.mergeNext = level + 1
			db.startLocked(lane, fmt.Sprintf("compaction L%d", level), func() error { return db.mergeOnce(level) })
		}
	}
	last := len(v.levels) - 1
	if lv := v.levels[last]; len(lv) > 0 && !db.lanes[db.lazyLane()] {
		if e, ok := lv[len(lv)-1].(tableEntry); ok { // oldest, settled
			db.startLocked(db.lazyLane(), "lazy compaction", func() error { return db.lazyOne(last, e.t) })
		}
	}
	if db.vlog != nil && !db.closed && !db.lanes[db.gcLane()] {
		if _, ok := db.vlog.PickGC(); ok {
			db.startLocked(db.gcLane(), "", func() error {
				_, err := db.RunValueLogGC()
				return err
			})
		}
	}
}

// startLocked runs fn on its own goroutine as lane's job. A job that
// fails does not reschedule: it degrades the store under op, except a GC
// round (op ""), whose errors leave the store writable and whose segment
// is retried at the next scheduling point. Callers hold db.mu.
func (db *DB) startLocked(lane int, op string, fn func() error) {
	db.lanes[lane] = true
	db.running++
	go func() {
		err := fn()
		db.mu.Lock()
		db.lanes[lane] = false
		db.running--
		if err == nil {
			db.scheduleLocked()
		} else if op != "" {
			db.degradeLocked(op, err)
		}
		db.cond.Broadcast()
		db.mu.Unlock()
	}()
}

// waitJobsLocked blocks until no job is running. Callers hold db.mu.
func (db *DB) waitJobsLocked() {
	for db.running > 0 {
		db.cond.Wait()
	}
}
