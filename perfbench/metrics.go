package main

import (
	"math"
	"slices"
	"strconv"
	"time"

	"miodb/internal/histogram"
)

// metricDef names one reported metric. For per-layer metrics, layer is the
// module the number is read from and moves names the end-to-end metrics
// and workload it should move.
type metricDef struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only
	layer      string
	moves      string
}

// endToEnd lists what a user of the store sees. Every workload reports
// every one; the bound is the share of the parent's median by which a
// metric may worsen before a change counts as a regression. Timings get
// the widest bound allowed: on a shared 2-vCPU host run medians move by
// 10-20% between batches of runs. The tail metric is the p90: a p99 follows
// the host's CPU steal, and on served_vlog_4k its spread over ten runs
// reached 40%; the detail line still reports p99 and beyond with their
// sample counts. Write amplification is a ratio of byte counts and repeats
// within a few percent.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "ops/s", better: "higher", bound: 0.25},
	{name: "put_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "put_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "get_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "get_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "scan_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "scan_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "wa", unit: "ratio", better: "lower", bound: 0.1},
	{name: "space_amp", unit: "ratio", better: "lower", bound: 0.25},
	{name: "device_us_per_op", unit: "us", better: "lower", bound: 0.25},
	{name: "mem_peak_mb", unit: "MB", better: "lower", bound: 0.25},
}

// Per-layer metrics, grouped by the module that produces them.
var perLayer = []metricDef{
	{name: "fail_ratio", unit: "ratio", better: "lower", layer: "oracle", moves: "every metric: a failed or wrong op invalidates the run (all workloads)"},
	{name: "samples.put", unit: "count", better: "higher", layer: "oracle", moves: "sample count behind put_p50_us/put_p90_us (all workloads)"},
	{name: "samples.get", unit: "count", better: "higher", layer: "oracle", moves: "sample count behind get_p50_us/get_p90_us; probe Gets on fill_uniform_128"},
	{name: "samples.scan", unit: "count", better: "higher", layer: "oracle", moves: "sample count behind scan_p50_us/scan_p90_us; probe Scans on fill_uniform_128 and served_vlog_4k"},

	{name: "server.get_overhead_us", unit: "us", better: "lower", layer: "server", moves: "get_p50_us on served_vlog_4k"},
	{name: "server.put_overhead_us", unit: "us", better: "lower", layer: "server", moves: "put_p90_us on served_vlog_4k"},
	{name: "server.commit_batch_mean", unit: "count", better: "higher", layer: "server", moves: "ops_per_s on served_vlog_4k"},

	{name: "core.commit.put_p50_us", unit: "us", better: "lower", layer: "core", moves: "put_p50_us, ops_per_s on fill_uniform_128"},
	{name: "core.commit.put_p99_us", unit: "us", better: "lower", layer: "core", moves: "put_p90_us on fill_uniform_128"},
	{name: "core.commit.group_mean", unit: "count", better: "higher", layer: "core", moves: "ops_per_s, put_p50_us on fill_uniform_128"},
	{name: "core.commit.stall_ms", unit: "ms", better: "lower", layer: "core", moves: "put_p90_us, ops_per_s on fill_uniform_128"},

	{name: "core.read.get_p50_us", unit: "us", better: "lower", layer: "core", moves: "get_p50_us on read_zipf_128"},
	{name: "core.read.scan_p50_us", unit: "us", better: "lower", layer: "core", moves: "scan_p50_us on read_zipf_128"},
	{name: "bloom.probes_per_get", unit: "count", better: "lower", layer: "bloom", moves: "get_p50_us, device_us_per_op on read_zipf_128"},
	{name: "bloom.skip_ratio", unit: "ratio", better: "higher", layer: "bloom", moves: "get_p50_us, device_us_per_op on read_zipf_128"},
	{name: "bloom.fp_rate", unit: "ratio", better: "lower", layer: "bloom", moves: "get_p50_us, device_us_per_op on read_zipf_128"},

	{name: "core.flush.count", unit: "count", better: "lower", layer: "core", moves: "ops_per_s, wa on fill_uniform_128"},
	{name: "core.flush.busy_ms", unit: "ms", better: "lower", layer: "core", moves: "ops_per_s, put_p90_us on fill_uniform_128"},
	{name: "core.flush.mb", unit: "MB", better: "lower", layer: "core", moves: "wa on fill_uniform_128"},
	{name: "core.compact.count", unit: "count", better: "lower", layer: "core", moves: "ops_per_s, wa on fill_uniform_128"},
	{name: "core.compact.busy_ms", unit: "ms", better: "lower", layer: "core", moves: "ops_per_s, put_p90_us on fill_uniform_128"},
	{name: "core.compact.drain_ms", unit: "ms", better: "lower", layer: "core", moves: "ops_per_s on fill_uniform_128"},
	{name: "core.backlog.imms_peak", unit: "count", better: "lower", layer: "core", moves: "put_p90_us, mem_peak_mb on fill_uniform_128"},
	{name: "core.backlog.l0_tables_peak", unit: "count", better: "lower", layer: "core", moves: "ops_per_s, get_p50_us on fill_uniform_128 and read_zipf_128"},

	{name: "pmtable.nodes_moved_per_put", unit: "count", better: "lower", layer: "pmtable", moves: "wa, ops_per_s on fill_uniform_128"},
	{name: "pmtable.lazy_copied_per_put", unit: "count", better: "lower", layer: "pmtable", moves: "wa, ops_per_s on fill_uniform_128"},
	{name: "pmtable.garbage_mb", unit: "MB", better: "lower", layer: "pmtable", moves: "space_amp on fill_uniform_128"},

	{name: "nvm.reads_per_op", unit: "count", better: "lower", layer: "nvm", moves: "ops_per_s, device_us_per_op on all workloads"},
	{name: "nvm.writes_per_op", unit: "count", better: "lower", layer: "nvm", moves: "ops_per_s, device_us_per_op on all workloads"},
	{name: "nvm.read_kb_per_op", unit: "KB", better: "lower", layer: "nvm", moves: "device_us_per_op on all workloads"},
	{name: "nvm.write_kb_per_op", unit: "KB", better: "lower", layer: "nvm", moves: "wa, device_us_per_op on all workloads"},
	{name: "dram.reads_per_op", unit: "count", better: "lower", layer: "vaddr", moves: "ops_per_s on all workloads"},

	{name: "vlog.append_kb_per_op", unit: "KB", better: "lower", layer: "vlog", moves: "wa, device_us_per_op on served_vlog_4k"},
	{name: "vlog.gc_relocated_kb_per_op", unit: "KB", better: "lower", layer: "vlog", moves: "wa, device_us_per_op on served_vlog_4k"},
	{name: "vlog.gc_segments", unit: "count", better: "lower", layer: "vlog", moves: "space_amp on served_vlog_4k"},
	{name: "vlog.dead_ratio_end", unit: "ratio", better: "lower", layer: "vlog", moves: "space_amp on served_vlog_4k"},

	{name: "go.allocs_per_op", unit: "count", better: "lower", layer: "process", moves: "ops_per_s, put_p50_us on fill_uniform_128; mem_peak_mb on all workloads"},
	{name: "go.alloc_bytes_per_op", unit: "B", better: "lower", layer: "process", moves: "ops_per_s on fill_uniform_128; mem_peak_mb on all workloads"},
	{name: "go.gc_cpu_fraction", unit: "ratio", better: "lower", layer: "process", moves: "ops_per_s, put_p50_us on fill_uniform_128"},
	{name: "proc.cpu_us_per_op", unit: "us", better: "lower", layer: "process", moves: "ops_per_s on all workloads"},

	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", layer: "benchmark", moves: "none: ops_per_s untraced over traced"},
}

func init() {
	for _, m := range substrate {
		perLayer = append(perLayer,
			metricDef{name: m.name, unit: "ns", better: "lower", layer: m.layer, moves: m.moves},
			metricDef{name: m.name + ".allocs", unit: "count", better: "lower", layer: m.layer, moves: m.moves})
	}
}

// percentile is the nearest-rank p-th percentile of sorted samples in µs.
// It is reported only when at least 10 samples lie beyond it.
func percentile(sorted []int64, p float64) (float64, bool) {
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 || n-rank < 10 {
		return 0, false
	}
	return float64(sorted[rank-1]) / 1e3, true
}

// ladder is the percentiles checked when naming the highest one a sample
// supports.
var ladder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// latencyReport is one op type's client latency over a run.
type latencyReport struct {
	Samples     int                `json:"samples"`
	Percentiles map[string]float64 `json:"percentiles_us"`
	Highest     string             `json:"highest_supported"`
}

func report(sorted []int64) latencyReport {
	r := latencyReport{Samples: len(sorted), Percentiles: map[string]float64{}}
	for _, p := range ladder {
		if v, ok := percentile(sorted, p); ok {
			name := "p" + strconv.FormatFloat(p, 'f', -1, 64)
			r.Percentiles[name] = v
			r.Highest = name
		}
	}
	return r
}

// histPercentile estimates the p-th percentile of an engine histogram in
// µs, interpolating linearly inside the bucket that holds the rank.
// Bucket i of internal/histogram holds durations in [2^(i/8), 2^((i+1)/8))
// ns. Like percentile, it needs at least 10 samples beyond the rank.
func histPercentile(s histogram.Snapshot, p float64) (float64, bool) {
	rank := int64(math.Ceil(p / 100 * float64(s.Count)))
	if rank < 1 || s.Count-rank < 10 {
		return 0, false
	}
	var seen int64
	for i, c := range s.Buckets {
		if c == 0 || seen+c < rank {
			seen += c
			continue
		}
		lo := math.Exp2(float64(i) / 8)
		hi := math.Exp2(float64(i+1) / 8)
		v := lo + (float64(rank-seen)-0.5)/float64(c)*(hi-lo)
		v = math.Max(v, float64(s.Min))
		v = math.Min(v, float64(s.Max))
		return v / 1e3, true
	}
	return 0, false
}

func mean(sorted []int64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	var sum float64
	for _, v := range sorted {
		sum += float64(v)
	}
	return sum / float64(len(sorted))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// results collects metric values and the ones that could not be measured.
type results struct {
	values  map[string]float64
	missing []string
}

func (r *results) set(name string, v float64) { r.values[name] = v }
func (r *results) setIf(name string, v float64, ok bool) {
	if ok {
		r.values[name] = v
	} else {
		r.missing = append(r.missing, name)
	}
}

// runMetrics combines the segments. Throughput, setup time and heap peak
// are per-segment figures whose noise is mostly the host's, so each is
// the median over segments: a burst of outside load in one segment cannot
// move it. Latency samples, byte counts and device time are pooled over
// the segments instead: on read_zipf_128 a segment either does or does
// not hold a repository compaction, and a median snaps to one of the two
// states where the pool averages them.
func runMetrics(segs []*segment) *results {
	r := &results{values: map[string]float64{}}
	var setups, rates, peaks []float64
	var ops int64
	var device time.Duration
	var written, user, inUse, live float64
	for _, s := range segs {
		setups = append(setups, s.setup.Seconds())
		rates = append(rates, float64(s.timed.ops)/s.timed.elapsed.Seconds())
		peaks = append(peaks, float64(s.memPeak)/1e6)
		ops += s.timed.ops
		device += deviceTime(s)
		written += float64(s.nvmWritten)
		user += float64(s.total.UserBytesWritten)
		inUse += float64(s.nvmInUse)
		live += float64(s.live)
	}
	r.set("setup_s", medianOf(setups))
	r.set("ops_per_s", medianOf(rates))
	r.set("mem_peak_mb", medianOf(peaks))
	for op, lat := range pooled(segs) {
		v, ok := percentile(lat, 50)
		r.setIf(opNames[op]+"_p50_us", v, ok)
		v, ok = percentile(lat, 90)
		r.setIf(opNames[op]+"_p90_us", v, ok)
	}
	r.set("wa", ratio(written, user))
	r.set("space_amp", ratio(inUse, live))
	r.set("device_us_per_op", device.Seconds()*1e6/float64(ops))
	return r
}

// pooled merges the segments' client latencies per op type, sorted.
func pooled(segs []*segment) [numOps][]int64 {
	var out [numOps][]int64
	for op := range out {
		for _, s := range segs {
			out[op] = append(out[op], s.timed.lat[op]...)
		}
		slices.Sort(out[op])
	}
	return out
}

func medianOf(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencyReports describes each op type's pooled client latency: sample
// count, the ladder percentiles the sample supports, and the highest.
func latencyReports(segs []*segment) map[string]latencyReport {
	out := map[string]latencyReport{}
	for op, lat := range pooled(segs) {
		out[opNames[op]] = report(lat)
	}
	return out
}

// writeAmp is one segment's persistent-device bytes written over user
// bytes since the store opened: preload, timed phase and drain. On read_zipf_128 the timed
// phase alone holds about a hundred flushes, too few for the repository's
// lazy copies to average out, so its ratio swings by a third between runs;
// over the whole segment it is steady. The value log lives on the NVM
// device, so the NVM counter covers every persistent write.
func writeAmp(s *segment) float64 {
	return ratio(float64(s.nvmWritten), float64(s.total.UserBytesWritten))
}

// deviceTime is the NVM time the device model charges for the timed
// phase's traffic: per-operation latency plus per-byte bandwidth cost,
// using the profile the device was built with.
func deviceTime(s *segment) time.Duration {
	prof := s.profile
	ns := float64(s.nvm.reads)*float64(prof.ReadLatency) +
		float64(s.nvm.bytesRead)*prof.ReadNanosPerByte +
		float64(s.nvm.writes)*float64(prof.WriteLatency) +
		float64(s.nvm.bytesWritten)*prof.WriteNanosPerByte
	return time.Duration(ns)
}
