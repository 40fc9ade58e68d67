package main

import (
	"fmt"
	"os"
	"time"

	"miodb/internal/stats"
)

// runTraced measures the per-layer ledger. It times only the benchmark's
// own calls into each module and reads each module's public counters; it
// adds nothing inside the program. An untraced pass with the same seed
// runs first, so the cost of the traced pass's sampling shows as
// trace.overhead_ratio. The substrate pass comes last.
func (cfg *config) runTraced() (*output, error) {
	// Both passes replay the first segment of an untraced run.
	length := cfg.seconds / segments
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: traced, 2 passes of %v\n", cfg.w.name, cfg.seed, length)
	plain, err := cfg.runSegment(0, length, false)
	if err != nil {
		return nil, err
	}
	p, err := cfg.runSegment(0, length, true)
	if err != nil {
		return nil, err
	}
	sub, err := runSubstrate(newSubstrateInput(cfg.w, cfg.seed*segments, p.timed.lat[opPut]))
	if err != nil {
		return nil, err
	}
	r := layerMetrics(cfg.w, plain, p, sub)
	segs := []*segment{plain, p}
	attempted, failed, _ := tally(segs)
	r.set("fail_ratio", float64(failed)/float64(attempted))
	out := finish(cfg.w, perLayer, r, segs)
	ledger := make([]map[string]string, len(perLayer))
	for i, d := range perLayer {
		ledger[i] = map[string]string{"metric": d.name, "layer": d.layer, "moves": d.moves}
	}
	out.detail["layer_map"] = ledger
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func opsPerSec(p *segment) float64 { return float64(p.timed.ops) / p.timed.elapsed.Seconds() }

func layerMetrics(w workload, plain, p *segment, sub map[string]float64) *results {
	r := &results{values: map[string]float64{}}
	t := p.timed
	st := p.st
	ops := float64(t.ops)
	puts := float64(len(t.lat[opPut]))

	r.set("samples.put", puts)
	r.set("samples.get", float64(len(t.lat[opGet])))
	r.set("samples.scan", float64(len(t.lat[opScan])))

	// Client span minus the engine's own span: client, wire and server
	// time. Local workloads bypass the server entirely.
	var getOver, putOver, batch float64
	if w.served {
		getOver = (mean(t.lat[opGet]) - float64(st.OpLatencies[stats.OpGet].Mean)) / 1e3
		putOver = (mean(t.lat[opPut]) - float64(st.OpLatencies[stats.OpPut].Mean)) / 1e3
		batch = ratio(float64(p.bops), float64(p.batches))
	}
	r.set("server.get_overhead_us", getOver)
	r.set("server.put_overhead_us", putOver)
	r.set("server.commit_batch_mean", batch)

	v, ok := histPercentile(st.OpLatencies[stats.OpPut], 50)
	r.setIf("core.commit.put_p50_us", v, ok)
	v, ok = histPercentile(st.OpLatencies[stats.OpPut], 99)
	r.setIf("core.commit.put_p99_us", v, ok)
	r.set("core.commit.group_mean", st.MeanGroupSize)
	r.set("core.commit.stall_ms", ms(st.IntervalStall+st.CumulativeStall))

	v, ok = histPercentile(st.OpLatencies[stats.OpGet], 50)
	r.setIf("core.read.get_p50_us", v, ok)
	v, ok = histPercentile(st.OpLatencies[stats.OpScan], 50)
	r.setIf("core.read.scan_p50_us", v, ok)
	r.set("bloom.probes_per_get", ratio(float64(st.BloomProbes), float64(st.Gets)))
	r.set("bloom.skip_ratio", ratio(float64(st.BloomSkips), float64(st.BloomProbes)))
	r.set("bloom.fp_rate", st.BloomFalsePositiveRate)

	r.set("core.flush.count", float64(st.Flushes))
	r.set("core.flush.busy_ms", ms(st.FlushTime))
	r.set("core.flush.mb", float64(st.FlushBytes)/1e6)
	r.set("core.compact.count", float64(st.Compactions))
	r.set("core.compact.busy_ms", ms(st.CompactionTime))
	r.set("core.compact.drain_ms", ms(t.drain))
	r.set("core.backlog.imms_peak", float64(p.imms))
	r.set("core.backlog.l0_tables_peak", float64(p.l0))

	// The last elastic-buffer level's entry counts lazy copies into the
	// repository; the levels above it count zero-copy merges.
	var moved, garbage int64
	last := len(p.compaction) - 1
	for i, c := range p.compaction {
		if i < last {
			moved += c.NodesMoved
		}
		garbage += c.GarbageBytes
	}
	r.set("pmtable.nodes_moved_per_put", ratio(float64(moved), puts))
	r.set("pmtable.lazy_copied_per_put", ratio(float64(p.compaction[last].NodesMoved), puts))
	r.set("pmtable.garbage_mb", float64(garbage)/1e6)

	r.set("nvm.reads_per_op", float64(p.nvm.reads)/ops)
	r.set("nvm.writes_per_op", float64(p.nvm.writes)/ops)
	r.set("nvm.read_kb_per_op", float64(p.nvm.bytesRead)/1024/ops)
	r.set("nvm.write_kb_per_op", float64(p.nvm.bytesWritten)/1024/ops)
	r.set("dram.reads_per_op", float64(p.dram.reads)/ops)

	r.set("vlog.append_kb_per_op", float64(p.vlog.AppendedBytes-p.vlogStart.AppendedBytes)/1024/ops)
	r.set("vlog.gc_relocated_kb_per_op", float64(p.vlog.GCRelocatedBytes-p.vlogStart.GCRelocatedBytes)/1024/ops)
	r.set("vlog.gc_segments", float64(p.vlog.GCSegmentsReclaimed-p.vlogStart.GCSegmentsReclaimed))
	r.set("vlog.dead_ratio_end", p.vlog.DeadRatio())

	// Process counters cover the benchmark's own callers too.
	a, b := p.proc[0], p.proc[1]
	r.set("go.allocs_per_op", float64(b.mallocs-a.mallocs)/ops)
	r.set("go.alloc_bytes_per_op", float64(b.allocBytes-a.allocBytes)/ops)
	r.set("go.gc_cpu_fraction", ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU))
	r.set("proc.cpu_us_per_op", float64((b.cpu-a.cpu).Microseconds())/ops)

	for k, v := range sub {
		r.set(k, v)
	}
	r.set("trace.overhead_ratio", opsPerSec(plain)/opsPerSec(p))
	return r
}
