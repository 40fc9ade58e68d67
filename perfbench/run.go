package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"miodb/internal/core"
	"miodb/internal/histogram"
	"miodb/internal/kvstore"
	"miodb/internal/nvm"
	"miodb/internal/stats"
	"miodb/internal/vlog"
	"miodb/internal/ycsb"
)

type opKind int

const (
	opPut opKind = iota
	opGet
	opScan
	numOps
)

var opNames = [numOps]string{"put", "get", "scan"}

// config is one invocation of the benchmark.
type config struct {
	w       workload
	seed    int64
	seconds time.Duration
	trace   bool
	// wrap, when set, wraps every caller's surface, and opsPerCaller, when
	// positive, ends each caller after that many operations; both serve
	// the benchmark's own tests.
	wrap         func(kv) kv
	opsPerCaller int64
}

// phase is what the callers of one phase did.
type phase struct {
	ops, failed int64
	errs        []string
	lat         [numOps][]int64 // sorted per-op client latencies, ns
}

func (p *phase) merge(c *caller) {
	p.ops += c.ops
	p.failed += c.failed
	p.errs = append(p.errs, c.errs...)
	for op := range p.lat {
		p.lat[op] = append(p.lat[op], c.lat[op]...)
	}
}

func (p *phase) sort() {
	for op := range p.lat {
		slices.Sort(p.lat[op])
	}
}

// caller is one closed-loop client goroutine. It owns the keys k with
// k % clients == id and is their only writer.
type caller struct {
	id, clients int
	e           *env
	s           kv
	rnd         *rand.Rand
	zipf        *ycsb.ZipfianChooser

	ops, failed int64
	errs        []string
	lat         [numOps][]int64

	key, val []byte
	los      []uint32
}

// maxErrs bounds the failure messages a caller keeps for the report.
const maxErrs = 3

func newCaller(e *env, s kv, id, clients int, seed int64) *caller {
	c := &caller{
		id: id, clients: clients, e: e, s: s,
		rnd: rand.New(rand.NewSource(seed)),
		key: make([]byte, 0, keyLen),
		val: make([]byte, e.w.valueSize),
		los: make([]uint32, 0, scanLen),
	}
	if e.w.zipf {
		c.zipf = ycsb.NewZipfianChooser(uint64(e.w.keys), seed)
	}
	return c
}

func (c *caller) fail(err error) {
	c.failed++
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, err.Error())
	}
}

func (c *caller) record(op opKind, start time.Time) {
	c.lat[op] = append(c.lat[op], int64(time.Since(start)))
	c.ops++
}

func (c *caller) pick() int {
	if c.zipf != nil {
		return int(c.zipf.Choose(uint64(c.e.w.keys)))
	}
	return c.rnd.Intn(c.e.w.keys)
}

// owned maps a chosen key to the nearest key this caller writes, so puts
// follow the same key distribution as reads.
func (c *caller) owned(k int) int {
	k = k - k%c.clients + c.id
	if k >= c.e.w.keys {
		k -= c.clients
	}
	return k
}

func (c *caller) get(k int) {
	o := c.e.o
	c.key = appendKey(c.key[:0], k)
	lo := o.acked[k].Load()
	start := time.Now()
	v, err := c.s.Get(c.key)
	c.record(opGet, start)
	hi := o.issued[k].Load()
	found := true
	if errors.Is(err, kvstore.ErrNotFound) {
		found, err = false, nil
	}
	if err == nil {
		err = o.checkGet(k, lo, hi, v, found, c.e.w.valueSize)
	}
	if err != nil {
		c.fail(fmt.Errorf("get: %w", err))
	}
}

func (c *caller) scan(k int) {
	o := c.e.o
	c.key = appendKey(c.key[:0], k)
	c.los = o.snapshotScan(k, c.los)
	start := time.Now()
	pairs, err := c.s.Scan(c.key, scanLen)
	c.record(opScan, start)
	if err == nil {
		err = o.checkScan(k, c.los, pairs, c.e.w.valueSize)
	}
	if err != nil {
		c.fail(fmt.Errorf("scan: %w", err))
	}
}

func (c *caller) put(k int) {
	o := c.e.o
	c.key = appendKey(c.key[:0], k)
	gen := o.issued[k].Load() + 1
	o.issued[k].Store(gen)
	fillValue(c.val, k, gen)
	start := time.Now()
	err := c.s.Put(c.key, c.val)
	c.record(opPut, start)
	if err != nil {
		c.fail(fmt.Errorf("put key %d: %w", k, err))
		return
	}
	o.acked[k].Store(gen)
	if gen == 1 {
		o.written.Add(1)
	}
}

// loop runs the workload mix until stop is set or, with limit > 0, limit
// operations are done.
func (c *caller) loop(stop *atomic.Bool, limit int64) {
	w := c.e.w
	for !stop.Load() && (limit <= 0 || c.ops < limit) {
		r := c.rnd.Intn(1000)
		switch {
		case r < w.gets:
			c.get(c.pick())
		case r < w.gets+w.scans:
			c.scan(c.pick())
		default:
			c.put(c.owned(c.pick()))
		}
	}
}

func (cfg *config) surface(e *env, c int) kv {
	s := e.caller(c)
	if cfg.wrap != nil {
		s = cfg.wrap(s)
	}
	return s
}

// timed is one timed phase: the callers run for the phase length, then
// the clock keeps running until the store is idle.
type timed struct {
	phase
	elapsed, drain time.Duration
}

func (cfg *config) runTimed(e *env, length time.Duration, seed int64) (*timed, error) {
	var stop atomic.Bool
	w := e.w
	callers := make([]*caller, w.clients)
	for i := range callers {
		callers[i] = newCaller(e, cfg.surface(e, i), i, w.clients, seed*1000+int64(i))
	}
	var wg sync.WaitGroup
	start := time.Now()
	timer := time.AfterFunc(length, func() { stop.Store(true) })
	defer timer.Stop()
	for _, c := range callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			c.loop(&stop, cfg.opsPerCaller)
		}(c)
	}
	wg.Wait()
	drain, err := drainToIdle(e.db)
	if err != nil {
		return nil, err
	}
	t := &timed{elapsed: time.Since(start), drain: drain}
	for _, c := range callers {
		t.merge(c)
	}
	t.sort()
	return t, nil
}

// Verification sweep size per segment.
const (
	sweepGets  = 5000
	sweepScans = 1000
)

// sweep reads back a fixed, seed-derived sample of keys with Get and
// 16-key Scan from two callers after every writer has stopped, so every
// answer is checked against an exact oracle. It is not timed.
func (cfg *config) sweep(e *env, seed int64) *phase {
	const sweepers = 2
	rnd := rand.New(rand.NewSource(seed))
	gets := make([]int, sweepGets)
	for i := range gets {
		gets[i] = rnd.Intn(e.w.keys)
	}
	scans := make([]int, sweepScans)
	for i := range scans {
		scans[i] = rnd.Intn(e.w.keys)
	}
	callers := make([]*caller, sweepers)
	var wg sync.WaitGroup
	for i := range callers {
		c := newCaller(e, cfg.surface(e, i), i, sweepers, seed+int64(i))
		callers[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := c.id; j < len(gets); j += sweepers {
				c.get(gets[j])
			}
			for j := c.id; j < len(scans); j += sweepers {
				c.scan(scans[j])
			}
		}()
	}
	wg.Wait()
	p := &phase{}
	for _, c := range callers {
		p.merge(c)
	}
	p.sort()
	return p
}

// proc is the process-wide cost counters.
type proc struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64 // runtime estimates, seconds
	cpu                 time.Duration
}

func readProc() proc {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	p := proc{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[0].Value.Float64()
		p.totalCPU = s[1].Value.Float64()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return p
}

// liveHeap is the heap the last garbage collection found reachable.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// every calls fn every interval on its own goroutine; the returned stop
// waits for that goroutine to exit and calls fn a last time.
func every(interval time.Duration, fn func()) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		fn()
	}
}

// segments is how many fresh stores one run sets up and measures; each
// gets an equal share of the run's seconds, and every end-to-end metric
// is the median over segments, so one unlucky stretch cannot move it.
const segments = 3

// segment is one setup, timed phase and verification sweep on a fresh
// store, with everything the metrics need captured at phase boundaries.
type segment struct {
	setup time.Duration
	timed *timed
	sweep *phase

	// Captured at the end of the drain. total is the engine's accounting
	// since open (setup included); st, nvm, dram and the other deltas
	// cover the timed phase alone.
	total, st       stats.Snapshot
	nvmWritten      int64 // NVM bytes written since open
	nvm, dram       deviceDelta
	profile         nvm.Profile            // the NVM device's latency and bandwidth model
	compaction      []core.CompactionStats // delta
	vlogStart, vlog vlog.Counters
	nvmInUse, live  int64 // sums over space samples: NVM bytes in use, live user bytes
	proc            [2]proc
	imms, l0        int64 // backlog peaks (traced segments)
	batches, bops   int64 // server merges committed
	memPeak         uint64
}

type deviceDelta struct {
	reads, writes, bytesRead, bytesWritten int64
}

func delta(end, start nvm.Counters) deviceDelta {
	return deviceDelta{end.Reads - start.Reads, end.Writes - start.Writes,
		end.BytesRead - start.BytesRead, end.BytesWritten - start.BytesWritten}
}

// since is the engine's accounting between two snapshots: the counters,
// times and latency histograms the metrics use.
func since(end, start stats.Snapshot) stats.Snapshot {
	d := end
	d.Flushes -= start.Flushes
	d.FlushTime -= start.FlushTime
	d.FlushBytes -= start.FlushBytes
	d.Compactions -= start.Compactions
	d.CompactionTime -= start.CompactionTime
	d.UserBytesWritten -= start.UserBytesWritten
	d.Puts -= start.Puts
	d.Gets -= start.Gets
	d.Scans -= start.Scans
	d.IntervalStall -= start.IntervalStall
	d.CumulativeStall -= start.CumulativeStall
	d.WriteGroups -= start.WriteGroups
	d.GroupedWrites -= start.GroupedWrites
	d.MeanGroupSize = ratio(float64(d.GroupedWrites), float64(d.WriteGroups))
	d.BloomProbes -= start.BloomProbes
	d.BloomSkips -= start.BloomSkips
	d.BloomFalsePositives -= start.BloomFalsePositives
	d.BloomFalsePositiveRate = ratio(float64(d.BloomFalsePositives), float64(d.BloomProbes-d.BloomSkips))
	for op := range d.OpLatencies {
		d.OpLatencies[op] = histSince(end.OpLatencies[op], start.OpLatencies[op])
	}
	return d
}

// histSince is the histogram of the samples recorded between two
// snapshots. Its minimum is unknown and left at zero.
func histSince(end, start histogram.Snapshot) histogram.Snapshot {
	if start.Count == 0 {
		return end
	}
	d := histogram.Snapshot{Count: end.Count - start.Count, Sum: end.Sum - start.Sum, Max: end.Max}
	if d.Count == 0 {
		return histogram.Snapshot{}
	}
	d.Mean = d.Sum / time.Duration(d.Count)
	d.Buckets = make([]int64, len(end.Buckets))
	for i := range end.Buckets {
		d.Buckets[i] = end.Buckets[i] - start.Buckets[i]
	}
	return d
}

// runSegment measures segment i of the run; segment i of two runs with
// the same seed replays the same inputs.
func (cfg *config) runSegment(i int, length time.Duration, traced bool) (*segment, error) {
	w := cfg.w
	seed := cfg.seed*segments + int64(i)
	s := &segment{}
	runtime.GC()
	stopMem := every(10*time.Millisecond, func() { s.memPeak = max(s.memPeak, liveHeap()) })
	defer stopMem()
	o := newOracle(w.keys)
	start := time.Now()
	e, err := open(w, o)
	if err != nil {
		return nil, err
	}
	s.setup = time.Since(start)
	defer e.close()

	db := e.db
	st0 := db.Stats()
	dram, nv := db.Devices()
	nvm0, dram0 := nv.Counters(), dram.Counters()
	comp0 := db.CompactionStats()
	s.vlogStart = db.ValueLogCounters()
	s.proc[0] = readProc()
	var b0, bops0 int64
	if e.served != nil {
		b0, bops0 = e.served.batches.Load(), e.served.batchOps.Load()
	}
	// Space is sampled through the timed phase and once more at its end,
	// so space_amp averages over the merge cycle instead of catching one
	// point of it.
	stopSpace := every(100*time.Millisecond, func() {
		s.nvmInUse += db.NVMUsage()
		s.live += o.liveBytes(w.valueSize)
	})
	stopBacklog := func() {}
	if traced {
		stopBacklog = every(5*time.Millisecond, func() {
			st := db.Stats()
			s.imms = max(s.imms, st.PendingImms)
			s.l0 = max(s.l0, st.L0Tables)
		})
	}
	t, err := cfg.runTimed(e, length, seed)
	stopBacklog()
	stopSpace()
	if err != nil {
		return nil, err
	}
	s.timed = t
	s.proc[1] = readProc()
	s.total = db.Stats()
	s.st = since(s.total, st0)
	nvm1 := nv.Counters()
	s.nvmWritten = nvm1.BytesWritten
	s.nvm, s.dram, s.profile = delta(nvm1, nvm0), delta(dram.Counters(), dram0), nv.Profile()
	s.compaction = db.CompactionStats()
	for i := range s.compaction {
		s.compaction[i].Merges -= comp0[i].Merges
		s.compaction[i].NodesMoved -= comp0[i].NodesMoved
		s.compaction[i].GarbageBytes -= comp0[i].GarbageBytes
	}
	s.vlog = db.ValueLogCounters()
	if e.served != nil {
		s.batches = e.served.batches.Load() - b0
		s.bops = e.served.batchOps.Load() - bops0
	}
	s.sweep = cfg.sweep(e, seed+7919)
	return s, nil
}
