package bench

import (
	"fmt"
	"sync"
	"time"

	"miodb/internal/histogram"
	"miodb/internal/kvstore"
	"miodb/internal/ycsb"
)

// KeyDist selects the key distribution for concurrent fill workloads.
type KeyDist int

const (
	// Uniform draws keys uniformly from [0, keySpace).
	Uniform KeyDist = iota
	// Zipfian draws keys with YCSB's scrambled-zipfian skew (theta 0.99),
	// the contended regime where group commit matters most: many writers
	// hammering a hot key range all funnel into the same memtable.
	Zipfian
)

func (d KeyDist) String() string {
	if d == Zipfian {
		return "zipfian"
	}
	return "uniform"
}

func (d KeyDist) chooser(keySpace uint64, seed int64) ycsb.Chooser {
	if d == Zipfian {
		return ycsb.NewZipfianChooser(keySpace, seed)
	}
	return ycsb.NewUniformChooser(seed)
}

// valuePool pre-generates a cycle of distinct values so the per-op cost of
// a concurrent driver is choosing a key, not seeding a PRNG: with many
// writer goroutines on few cores, per-op value generation would otherwise
// dominate the profile and mask the store's own behavior.
type valuePool struct {
	vals [][]byte
	next int
}

func newValuePool(gen, size, n int) *valuePool {
	p := &valuePool{vals: make([][]byte, n)}
	for i := range p.vals {
		p.vals[i] = dbValue(uint64(i), gen, size)
	}
	return p
}

func (p *valuePool) value() []byte {
	v := p.vals[p.next]
	p.next++
	if p.next == len(p.vals) {
		p.next = 0
	}
	return v
}

// ConcurrentFill drives total writes from `writers` goroutines issuing
// Put operations as fast as the store admits them — the multi-client
// regime a one-goroutine-per-connection server produces. Latencies from
// all writers land in one shared (thread-safe) histogram. total is split
// evenly across writers; the remainder goes to writer 0.
func ConcurrentFill(s kvstore.Store, total int, keySpace uint64, valueSize int, seed int64, writers int, dist KeyDist) (RunResult, error) {
	if writers < 1 {
		writers = 1
	}
	h := histogram.New()
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	per := total / writers
	start := time.Now()
	for g := 0; g < writers; g++ {
		n := per
		if g == 0 {
			n += total - per*writers
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			choose := dist.chooser(keySpace, seed+int64(g)*7919)
			pool := newValuePool(g+1, valueSize, 64)
			for i := 0; i < n; i++ {
				k := dbKey(choose.Choose(keySpace))
				v := pool.value()
				t0 := time.Now()
				if err := s.Put(k, v); err != nil {
					errCh <- fmt.Errorf("writer %d: %w", g, err)
					return
				}
				h.Record(time.Since(t0))
			}
		}(g, n)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return RunResult{}, err
	default:
	}
	return finishRun(int64(total), time.Since(start), h, nil), nil
}

// ConcurrentWrites is the multi-writer experiment behind the group-commit
// pipeline: fill throughput vs writer count, MioDB's group commit against
// its 4-shard build and NoveLSM (whose write path stays serialized), for
// uniform and zipfian keys. The group-size column shows how many writes
// each leader commit carried.
func ConcurrentWrites(p Params) (*Report, error) {
	p = p.norm()
	r := NewReport("concurrent", "Multi-writer fill throughput (KIOPS): group commit", p.Out)
	const valueSize = 128
	n := int(32000 * p.Scale)
	if n < 4000 {
		n = 4000
	}
	arms := []struct {
		name string
		cfg  Config
	}{
		{"miodb", Config{Kind: MioDB, Simulate: true}},
		{"miodb-sh4", Config{Kind: MioDB, Simulate: true, Shards: 4}},
		{"novelsm", Config{Kind: NoveLSM, Simulate: true}},
	}
	// Scheduler noise on small hosts swamps single-shot cells; report the
	// best of three runs per cell (the standard db_bench practice for
	// throughput), with group stats taken from the best run.
	const reps = 3
	for _, dist := range []KeyDist{Uniform, Zipfian} {
		rows := [][]string{}
		for _, writers := range []int{1, 2, 4, 8, 16} {
			row := []string{fmt.Sprintf("%d", writers)}
			for _, arm := range arms {
				best, bestGS := 0.0, 0.0
				for rep := 0; rep < reps; rep++ {
					s, err := OpenStore(arm.cfg)
					if err != nil {
						return nil, err
					}
					res, err := ConcurrentFill(s, n, uint64(n), valueSize, p.Seed+int64(rep), writers, dist)
					if err != nil {
						s.Close()
						return nil, err
					}
					st := s.Stats()
					s.Close()
					if res.KIOPS > best {
						best = res.KIOPS
						if st.WriteGroups > 0 {
							bestGS = float64(st.GroupedWrites) / float64(st.WriteGroups)
						}
					}
				}
				row = append(row, f1(best))
				if arm.name == "miodb" {
					row = append(row, fmt.Sprintf("%.2f", bestGS))
				}
			}
			rows = append(rows, row)
		}
		r.Table([]string{"writers", "miodb", "group-size", "miodb-sh4", "novelsm"}, rows)
		r.Printf("(%s keys, %d entries, %d B values, best of %d runs)", dist, n, valueSize, reps)
	}
	r.Printf("shape: with one writer an uncontended writer bypasses the queue (groups of 1). As writers grow, the group-size column shows leader commits carrying nearly the whole writer set, coalescing their WAL appends; the win the pipeline targets is multi-core, where followers park instead of contending. The miodb-sh4 arm hash-partitions the same build over 4 engines — 4 commit locks and 4 WALs — which on a multi-core host compounds with group commit (each shard forms its own groups) and on a single core is roughly cost-neutral. All MioDB arms stay far above NoveLSM, whose write path serializes and stalls.")
	return r, nil
}

// ConcurrentBatchFill is ConcurrentFill with each writer grouping its
// operations into client-side batches of batchSize before submitting them
// through the store's batch interface (kvstore.BatchWriter). Stores
// without batch support fall back to per-op Puts.
func ConcurrentBatchFill(s kvstore.Store, total int, keySpace uint64, valueSize int, seed int64, writers, batchSize int, dist KeyDist) (RunResult, error) {
	bw, ok := s.(kvstore.BatchWriter)
	if batchSize <= 1 || !ok {
		return ConcurrentFill(s, total, keySpace, valueSize, seed, writers, dist)
	}
	if writers < 1 {
		writers = 1
	}
	h := histogram.New()
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	per := total / writers
	start := time.Now()
	for g := 0; g < writers; g++ {
		n := per
		if g == 0 {
			n += total - per*writers
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			choose := dist.chooser(keySpace, seed+int64(g)*7919)
			pool := newValuePool(g+1, valueSize, 64)
			for done := 0; done < n; {
				m := batchSize
				if n-done < m {
					m = n - done
				}
				ops := make([]kvstore.BatchOp, 0, m)
				for i := 0; i < m; i++ {
					ops = append(ops, kvstore.BatchOp{
						Key:   dbKey(choose.Choose(keySpace)),
						Value: pool.value(),
					})
				}
				t0 := time.Now()
				if err := bw.WriteBatch(ops); err != nil {
					errCh <- fmt.Errorf("writer %d: %w", g, err)
					return
				}
				h.Record(time.Since(t0))
				done += m
			}
		}(g, n)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return RunResult{}, err
	default:
	}
	return finishRun(int64(total), time.Since(start), h, nil), nil
}
