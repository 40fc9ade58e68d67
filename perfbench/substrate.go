package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"time"

	"miodb/internal/bloom"
	"miodb/internal/histogram"
	"miodb/internal/keys"
	"miodb/internal/memtable"
	"miodb/internal/nvm"
	"miodb/internal/pmtable"
	"miodb/internal/server"
	"miodb/internal/skiplist"
	"miodb/internal/vaddr"
	"miodb/internal/vlog"
	"miodb/internal/wal"
)

// The substrate pass replays a workload's own keys and values through
// each package's exported API, one call site at a time, and reports
// ns/call and allocations/call. Sizes follow the engine's defaults: 64 KB
// memtables in 256 KB arena chunks, 16K-key bloom filters at 16 bits/key,
// value-log segments of four memtables.
const (
	memTableSize  = 64 << 10
	chunkSize     = 256 << 10
	filterKeys    = 1 << 14
	filterBits    = 16
	segmentSize   = 4 * memTableSize
	microBudget   = 100 * time.Millisecond
	substrateKeys = 1024
)

// substrateInput is the slice of a workload a micro-benchmark replays:
// the first keys caller 0 of a segment with this seed writes, with their
// values, and the timed phase's put latencies.
type substrateInput struct {
	keys, vals [][]byte
	lat        []time.Duration
	batch      int // records per WAL append: one group of the workload's callers
}

func newSubstrateInput(w workload, seed int64, putLat []int64) *substrateInput {
	e := &env{w: w, o: newOracle(w.keys)}
	c := newCaller(e, nil, 0, w.clients, seed*1000)
	in := &substrateInput{batch: w.clients}
	for i := 0; i < substrateKeys; i++ {
		k := c.owned(c.pick())
		v := make([]byte, w.valueSize)
		fillValue(v, k, 1)
		in.keys = append(in.keys, appendKey(nil, k))
		in.vals = append(in.vals, v)
	}
	for _, d := range putLat {
		in.lat = append(in.lat, time.Duration(d))
	}
	if len(in.lat) == 0 {
		in.lat = []time.Duration{time.Microsecond}
	}
	return in
}

// microTimer accumulates timed sections of a micro-benchmark until the
// budget is spent.
type microTimer struct {
	elapsed time.Duration
	calls   int64
	mallocs uint64
	t0      time.Time
	m0      uint64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (t *microTimer) start() { t.m0 = mallocs(); t.t0 = time.Now() }

func (t *microTimer) stop(calls int) {
	t.elapsed += time.Since(t.t0)
	t.mallocs += mallocs() - t.m0
	t.calls += int64(calls)
}

func (t *microTimer) more() bool { return t.elapsed < microBudget }

type micro struct {
	name, layer, moves string
	run                func(in *substrateInput, t *microTimer) error
}

var sink []byte

func devices() (space *vaddr.Space, dram, nv *nvm.Device) {
	space = vaddr.NewSpace()
	return space, nvm.NewDevice(space, nvm.DRAMProfile()), nvm.NewDevice(space, nvm.NVMProfile())
}

var substrate = []micro{
	{"vaddr.read_ns", "vaddr", "ops_per_s on all workloads", func(in *substrateInput, t *microTimer) error {
		_, _, nv := devices()
		r := nv.NewRegion(chunkSize)
		addrs, err := writeAll(r, in.vals)
		if err != nil {
			return err
		}
		for t.more() {
			t.start()
			for i := range addrs {
				sink = r.Read(addrs[i], len(in.vals[i]))
			}
			t.stop(len(addrs))
		}
		return nil
	}},
	{"vaddr.write_ns", "vaddr", "ops_per_s on all workloads", func(in *substrateInput, t *microTimer) error {
		_, _, nv := devices()
		r := nv.NewRegion(chunkSize)
		addrs, err := writeAll(r, in.vals)
		if err != nil {
			return err
		}
		for t.more() {
			t.start()
			for i := range addrs {
				r.Write(addrs[i], in.vals[i])
			}
			t.stop(len(addrs))
		}
		return nil
	}},
	{"nvm.meter_ns_2p", "nvm", "ops_per_s, device_us_per_op on all workloads", func(in *substrateInput, t *microTimer) error {
		_, _, nv := devices()
		const calls = 1 << 16
		n := len(in.vals[0])
		for t.more() {
			var wg sync.WaitGroup
			t.start()
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < calls; i++ {
						nv.OnRead(n)
					}
				}()
			}
			wg.Wait()
			t.stop(calls) // per call, as each of the two goroutines sees it
		}
		return nil
	}},
	{"skiplist.insert_ns", "skiplist", "put_p50_us, ops_per_s on fill_uniform_128", func(in *substrateInput, t *microTimer) error {
		space, dram, _ := devices()
		for t.more() {
			r := dram.NewRegion(chunkSize)
			l, err := skiplist.New(r)
			if err != nil {
				return err
			}
			t.start()
			for i := range in.keys {
				if err := l.Insert(in.keys[i], in.vals[i], uint64(i+1), keys.KindSet); err != nil {
					return err
				}
			}
			t.stop(len(in.keys))
			space.Release(r)
		}
		return nil
	}},
	{"skiplist.get_ns", "skiplist", "get_p50_us on read_zipf_128", func(in *substrateInput, t *microTimer) error {
		_, dram, _ := devices()
		l, err := skiplist.New(dram.NewRegion(chunkSize))
		if err != nil {
			return err
		}
		for i := range in.keys {
			if err := l.Insert(in.keys[i], in.vals[i], uint64(i+1), keys.KindSet); err != nil {
				return err
			}
		}
		for t.more() {
			t.start()
			for i := range in.keys {
				sink, _, _, _ = l.Get(in.keys[i])
			}
			t.stop(len(in.keys))
		}
		return nil
	}},
	{"pmtable.build_ns_per_entry", "pmtable", "ops_per_s, wa on fill_uniform_128", func(in *substrateInput, t *microTimer) error {
		for id := uint64(1); t.more(); id++ {
			_, dram, nv := devices()
			mt, n, err := fillMemTable(dram, in, 0)
			if err != nil {
				return err
			}
			t.start()
			pmtable.Flush(nv, mt, id, 1, uint64(n), filterParams())
			t.stop(n)
		}
		return nil
	}},
	{"pmtable.merge_ns_per_entry", "pmtable", "ops_per_s, wa on fill_uniform_128", func(in *substrateInput, t *microTimer) error {
		for t.more() {
			_, dram, nv := devices()
			older, n1, err := flushTable(dram, nv, in, 0, 1)
			if err != nil {
				return err
			}
			newer, n2, err := flushTable(dram, nv, in, n1, 2)
			if err != nil {
				return err
			}
			t.start()
			pmtable.NewMerge(newer, older).Run()
			t.stop(n1 + n2)
		}
		return nil
	}},
	{"pmtable.absorb_ns_per_entry", "pmtable", "wa, ops_per_s on fill_uniform_128", func(in *substrateInput, t *microTimer) error {
		for t.more() {
			_, dram, nv := devices()
			repo, err := pmtable.NewRepository(nv, chunkSize)
			if err != nil {
				return err
			}
			// Several tables per repository, so absorbs also meet existing keys.
			for round, off := uint64(1), 0; round <= 4 && t.more(); round++ {
				tbl, n, err := flushTable(dram, nv, in, off, round)
				if err != nil {
					return err
				}
				off += n
				t.start()
				err = repo.Absorb(tbl)
				t.stop(n)
				if err != nil {
					return err
				}
			}
		}
		return nil
	}},
	{"wal.append_batch_ns", "wal", "put_p50_us, ops_per_s on fill_uniform_128", func(in *substrateInput, t *microTimer) error {
		recs := make([]wal.Record, in.batch)
		seq := uint64(0)
		for t.more() {
			_, _, nv := devices()
			log := wal.New(nv, chunkSize)
			const calls = 256
			t.start()
			for c := 0; c < calls; c++ {
				for i := range recs {
					j := (c*len(recs) + i) % len(in.keys)
					seq++
					recs[i] = wal.Record{Key: in.keys[j], Value: in.vals[j], Seq: seq, Kind: keys.KindSet}
				}
				if err := log.AppendBatch(recs); err != nil {
					return err
				}
			}
			t.stop(calls)
		}
		return nil
	}},
	{"bloom.may_contain_ns", "bloom", "get_p50_us on read_zipf_128", func(in *substrateInput, t *microTimer) error {
		f := bloom.New(filterKeys, filterBits)
		for i := 0; i < len(in.keys); i += 2 {
			f.Add(in.keys[i])
		}
		hits := 0
		for t.more() {
			t.start()
			for _, k := range in.keys {
				if f.MayContain(k) {
					hits++
				}
			}
			t.stop(len(in.keys))
		}
		if hits == 0 {
			return fmt.Errorf("bloom: no key found")
		}
		return nil
	}},
	{"vlog.append_ns", "vlog", "put_p90_us, wa on served_vlog_4k", func(in *substrateInput, t *microTimer) error {
		for seq := uint64(1); t.more(); {
			_, _, nv := devices()
			st := vlog.NewNVM(nv, vlog.Config{SegmentSize: segmentSize, GCDeadRatio: 0.5})
			t.start()
			for i := range in.keys {
				if _, err := st.Append(in.keys[i], in.vals[i], seq); err != nil {
					return err
				}
				seq++
			}
			t.stop(len(in.keys))
		}
		return nil
	}},
	{"vlog.read_ns", "vlog", "get_p50_us, device_us_per_op on served_vlog_4k", func(in *substrateInput, t *microTimer) error {
		_, _, nv := devices()
		st := vlog.NewNVM(nv, vlog.Config{SegmentSize: segmentSize, GCDeadRatio: 0.5})
		addrs := make([]vlog.Addr, len(in.keys))
		for i := range in.keys {
			a, err := st.Append(in.keys[i], in.vals[i], uint64(i+1))
			if err != nil {
				return err
			}
			addrs[i] = a
		}
		for t.more() {
			t.start()
			for _, a := range addrs {
				_, v, _, err := st.Read(a)
				if err != nil {
					return err
				}
				sink = v
			}
			t.stop(len(addrs))
		}
		return nil
	}},
	{"server.codec_ns", "server", "put_p50_us, ops_per_s on served_vlog_4k", func(in *substrateInput, t *microTimer) error {
		// The reply to a put: tag, StatusOK, empty length-prefixed payload.
		resp := make([]byte, 13)
		binary.LittleEndian.PutUint64(resp, 7)
		resp[8] = server.StatusOK
		var buf []byte
		rd := bytes.NewReader(nil)
		for t.more() {
			t.start()
			for i := range in.keys {
				buf = server.AppendTaggedRequest(buf[:0], 7, server.OpPut, in.keys[i], in.vals[i])
				rd.Reset(resp)
				if _, status, _, err := server.ReadTaggedResponse(rd); err != nil || status != server.StatusOK {
					return fmt.Errorf("codec: status %d, %v", status, err)
				}
			}
			t.stop(len(in.keys))
		}
		sink = buf
		return nil
	}},
	{"histogram.record_ns", "histogram", "put_p50_us, get_p50_us on all workloads", func(in *substrateInput, t *microTimer) error {
		var h histogram.Histogram
		for t.more() {
			t.start()
			for _, d := range in.lat {
				h.Record(d)
			}
			t.stop(len(in.lat))
		}
		return nil
	}},
}

func filterParams() pmtable.FilterParams {
	return pmtable.FilterParams{ExpectedKeys: filterKeys, BitsPerKey: filterBits}
}

func writeAll(r *vaddr.Region, vals [][]byte) ([]vaddr.Addr, error) {
	addrs := make([]vaddr.Addr, len(vals))
	for i, v := range vals {
		a, err := r.Alloc(len(v))
		if err != nil {
			return nil, err
		}
		r.Write(a, v)
		addrs[i] = a
	}
	return addrs, nil
}

// fillMemTable adds input entries from off (wrapping), with sequence
// numbers from off+1, until the memtable is full, as a flush finds it.
func fillMemTable(dram *nvm.Device, in *substrateInput, off int) (*memtable.MemTable, int, error) {
	mt, err := memtable.New(dram, memTableSize, chunkSize)
	if err != nil {
		return nil, 0, err
	}
	n := 0
	for !mt.Full() {
		j := (off + n) % len(in.keys)
		if err := mt.Add(in.keys[j], in.vals[j], uint64(off+n+1), keys.KindSet); err != nil {
			return nil, 0, err
		}
		n++
	}
	return mt, n, nil
}

func flushTable(dram, nv *nvm.Device, in *substrateInput, off int, id uint64) (*pmtable.Table, int, error) {
	mt, n, err := fillMemTable(dram, in, off)
	if err != nil {
		return nil, 0, err
	}
	return pmtable.Flush(nv, mt, id, uint64(off+1), uint64(off+n), filterParams()), n, nil
}

// runSubstrate returns ns/call and allocations/call per micro-benchmark.
func runSubstrate(in *substrateInput) (map[string]float64, error) {
	out := map[string]float64{}
	for _, m := range substrate {
		var t microTimer
		if err := m.run(in, &t); err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		out[m.name] = float64(t.elapsed.Nanoseconds()) / float64(t.calls)
		out[m.name+".allocs"] = float64(t.mallocs) / float64(t.calls)
	}
	return out, nil
}
