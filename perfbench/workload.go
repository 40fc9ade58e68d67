package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// workload is one closed-loop traffic mix. Everything but the seed is
// fixed here, so two runs with the same seed issue the same operations
// from each caller.
type workload struct {
	name      string
	keys      int // key space; key i is owned by caller i % clients
	preload   int // keys [0, preload) written once during setup
	valueSize int
	zipf      bool // scrambled zipfian (θ 0.99) key choice, else uniform
	gets      int  // per-mille share of Gets
	scans     int  // per-mille share of 16-key Scans; the rest are Puts
	served    bool // through internal/server and internal/client over loopback
	valueLog  bool // key-value separation with the default 1 KiB threshold
	clients   int  // closed-loop callers (goroutines)
	conns     int  // client connections, served workloads only
}

// scanLen is the length of every Scan the benchmark issues.
const scanLen = 16

// Why each workload exists (also recorded in BENCHMARK.json):
//   - fill_uniform_128 drives only the paper's write path (commit, WAL,
//     memtable, one-piece flush, zero-copy merge, lazy copy); values sit
//     below the value-log threshold and no server is involved.
//   - read_zipf_128 puts the read path under load on a store 450× the
//     memtable, with 5% writes so flushes and merges keep running.
//   - served_vlog_4k is the only workload through the wire codec, the
//     cross-connection batcher and the value log (append, resolve, GC).
//
// Every workload reports every end-to-end metric, Get and Scan latency
// included, so the write-only fill carries a 1% Get and 0.2% Scan probe
// and the served mix a 1% Scan probe. Issued by the callers themselves,
// the probes see the workload's own load without timer wake-ups and give
// each segment hundreds of Scans, enough for a p90; on the fill they take
// about 3% of the callers' time.
var workloads = []workload{
	{
		name: "fill_uniform_128", keys: 1 << 20, valueSize: 128,
		gets: 10, scans: 2, clients: 2,
	},
	{
		name: "read_zipf_128", keys: 200_000, preload: 200_000, valueSize: 128,
		zipf: true, gets: 900, scans: 50, clients: 2,
	},
	{
		name: "served_vlog_4k", keys: 50_000, preload: 50_000, valueSize: 4096,
		zipf: true, gets: 495, scans: 10, served: true, valueLog: true, clients: 32, conns: 2,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Keys are "user" + 12 decimal digits: fixed width, so byte order is
// index order and a Scan's expected result follows from the oracle.
const keyLen = 16

func appendKey(dst []byte, i int) []byte {
	dst = append(dst, "user"...)
	var d [12]byte
	for j := len(d) - 1; j >= 0; j-- {
		d[j] = byte('0' + i%10)
		i /= 10
	}
	return append(dst, d[:]...)
}

func keyIndex(k []byte) (int, bool) {
	if len(k) != keyLen || string(k[:4]) != "user" {
		return 0, false
	}
	i := 0
	for _, c := range k[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		i = i*10 + int(c-'0')
	}
	return i, true
}

// Values carry their own proof of identity:
//
//	[key index u64 | generation u32 | crc32c u32 | filler]
//
// The filler is a pure function of (key, generation) and the checksum
// covers everything but itself, so a value read back names exactly which
// write produced it, and any flipped byte is caught.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const valueHeader = 16

func fillValue(v []byte, k int, gen uint32) {
	binary.LittleEndian.PutUint64(v[0:8], uint64(k))
	binary.LittleEndian.PutUint32(v[8:12], gen)
	x := uint64(k)<<32 | uint64(gen)
	i := valueHeader
	for ; i+8 <= len(v); i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(v[i:], x)
	}
	for x = splitmix(x); i < len(v); i++ {
		v[i] = byte(x)
		x >>= 8
	}
	binary.LittleEndian.PutUint32(v[12:16], valueCRC(v))
}

func valueCRC(v []byte) uint32 {
	c := crc32.Update(0, castagnoli, v[0:12])
	return crc32.Update(c, castagnoli, v[valueHeader:])
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// decodeValue returns the generation a value encodes, after checking its
// size, key and checksum.
func decodeValue(v []byte, k, size int) (uint32, error) {
	if len(v) != size {
		return 0, fmt.Errorf("key %d: value is %d bytes, want %d", k, len(v), size)
	}
	if got := int(binary.LittleEndian.Uint64(v[0:8])); got != k {
		return 0, fmt.Errorf("key %d: value belongs to key %d", k, got)
	}
	if binary.LittleEndian.Uint32(v[12:16]) != valueCRC(v) {
		return 0, fmt.Errorf("key %d: value checksum mismatch", k)
	}
	return binary.LittleEndian.Uint32(v[8:12]), nil
}

// oracle knows the last acknowledged write of every key. Each key has one
// writer, which bumps issued before its Put and acked after the Put
// returns. A reader that loads acked before its read and issued after it
// has a window [lo, hi] the generation it sees must fall in; generation 0
// means the key was never written.
type oracle struct {
	acked   []atomic.Uint32
	issued  []atomic.Uint32
	written atomic.Int64 // keys with an acked write
}

func newOracle(n int) *oracle {
	return &oracle{acked: make([]atomic.Uint32, n), issued: make([]atomic.Uint32, n)}
}

// checkGet validates one Get answer; found is false for a NotFound.
func (o *oracle) checkGet(k int, lo, hi uint32, v []byte, found bool, size int) error {
	if !found {
		if lo > 0 {
			return fmt.Errorf("key %d: not found, but generation %d was acked", k, lo)
		}
		return nil
	}
	gen, err := decodeValue(v, k, size)
	if err != nil {
		return err
	}
	if gen < lo || gen > hi || gen == 0 {
		return fmt.Errorf("key %d: read generation %d outside acked window [%d, %d]", k, gen, lo, hi)
	}
	return nil
}

// scanWindow caps how far past a Scan's start the pre-Scan oracle snapshot
// reaches in a sparse key space.
const scanWindow = 4096

// snapshotScan loads, before a Scan from start, the acked generations of
// keys from start up to the scanLen-th written key (at most scanWindow
// keys). Keys are never deleted, so every key the Scan may return lies in
// that window unless the cap cut it short.
func (o *oracle) snapshotScan(start int, los []uint32) []uint32 {
	los = los[:0]
	present := 0
	for j := start; j < len(o.acked) && present < scanLen && len(los) < scanWindow; j++ {
		lo := o.acked[j].Load()
		los = append(los, lo)
		if lo > 0 {
			present++
		}
	}
	return los
}

// checkScan validates a Scan of up to scanLen keys from start against the
// snapshot snapshotScan took before it: every returned value must be one
// its key could hold, and no key written before the Scan may be skipped.
// Keys past a capped window are checked for their values only.
func (o *oracle) checkScan(start int, los []uint32, pairs [][2][]byte, size int) error {
	if len(pairs) > scanLen {
		return fmt.Errorf("scan from %d: %d results, limit %d", start, len(pairs), scanLen)
	}
	end := start + len(los) // first key the snapshot does not cover
	skipped := func(from, to int) error {
		for j := from; j < min(to, end); j++ {
			if los[j-start] > 0 {
				return fmt.Errorf("scan from %d: skipped acked key %d", start, j)
			}
		}
		return nil
	}
	j := start
	for _, p := range pairs {
		k, ok := keyIndex(p[0])
		if !ok || k < j || k >= len(o.acked) {
			return fmt.Errorf("scan from %d: unexpected key %q", start, p[0])
		}
		if err := skipped(j, k); err != nil {
			return err
		}
		var lo uint32
		if k < end {
			lo = los[k-start]
		}
		if err := o.checkGet(k, lo, o.issued[k].Load(), p[1], true, size); err != nil {
			return fmt.Errorf("scan from %d: %w", start, err)
		}
		j = k + 1
	}
	if len(pairs) < scanLen {
		return skipped(j, end)
	}
	return nil
}

// liveBytes is the user data the store must hold: key plus value of every
// written key.
func (o *oracle) liveBytes(size int) int64 {
	return o.written.Load() * int64(keyLen+size)
}
