package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// tiny shrinks a workload's key space so setup takes a moment, and gives
// Gets and Scans at least 10% each and Puts at least 30%, so a one-second
// segment holds the 1010 samples a p99 needs even under the race detector.
func tiny(w workload) workload {
	w.keys /= 64
	w.preload /= 64
	w.scans = max(w.scans, 100)
	w.gets = min(max(w.gets, 100), 700-w.scans)
	return w
}

const tinySeconds = segments * time.Second

func tinyRun(t *testing.T, w workload, trace bool, wrap func(kv) kv) *output {
	t.Helper()
	cfg := config{w: tiny(w), seed: 3, seconds: tinySeconds, trace: trace, wrap: wrap}
	out, err := cfg.run()
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return out
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: file %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: file %+v, program %+v", i, m, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: file %+v, program %+v", i, m, d)
		}
	}
}

func checkMetrics(t *testing.T, name string, out *output, defs []metricDef) {
	t.Helper()
	if !out.summary.Correct || out.summary.Failed != 0 {
		t.Fatalf("%s: correct=%v failed=%d: %v", name, out.summary.Correct, out.summary.Failed, out.detail["errors"])
	}
	for _, d := range defs {
		m, ok := out.summary.Metrics[d.name]
		if !ok {
			t.Errorf("%s: metric %s missing (%v)", name, d.name, out.detail["missing"])
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("%s: %s unit %q, want %q", name, d.name, m.Unit, d.unit)
		}
	}
	if len(out.summary.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(out.summary.Metrics), len(defs))
	}
}

func TestTinyRunPrintsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			checkMetrics(t, w.name, tinyRun(t, w, false, nil), endToEnd)
			out := tinyRun(t, w, true, nil)
			checkMetrics(t, w.name+" traced", out, perLayer)
			// The local workloads bypass the server and the value log.
			if !w.served {
				for _, name := range []string{"server.get_overhead_us", "server.put_overhead_us", "server.commit_batch_mean",
					"vlog.append_kb_per_op", "vlog.gc_relocated_kb_per_op", "vlog.gc_segments"} {
					if v := out.summary.Metrics[name].Value; v != 0 {
						t.Errorf("%s: %s = %g on a workload that bypasses it", w.name, name, v)
					}
				}
			}
		})
	}
}

// flipKV corrupts one byte of every value a Get returns.
type flipKV struct{ kv }

func (f flipKV) Get(key []byte) ([]byte, error) {
	v, err := f.kv.Get(key)
	if err != nil {
		return v, err
	}
	v = append([]byte(nil), v...) // never write into the store's memory
	v[len(v)/2] ^= 0x40
	return v, nil
}

func TestCorruptValueFailsTheRun(t *testing.T) {
	w, _ := findWorkload("read_zipf_128")
	out := tinyRun(t, w, true, func(s kv) kv { return flipKV{s} })
	if out.summary.Correct || out.summary.Failed == 0 {
		t.Fatalf("corrupted values passed: correct=%v failed=%d", out.summary.Correct, out.summary.Failed)
	}
	if r := out.summary.Metrics["fail_ratio"].Value; r <= 0 {
		t.Fatalf("fail_ratio = %g with corrupted values", r)
	}
}

// slowKV sleeps before every Put.
type slowKV struct{ kv }

const putDelay = 200 * time.Microsecond

func (s slowKV) Put(key, value []byte) error {
	time.Sleep(putDelay)
	return s.kv.Put(key, value)
}

func TestSlowPutRaisesLatencyNotWriteAmp(t *testing.T) {
	w, _ := findWorkload("fill_uniform_128")
	run := func(wrap func(kv) kv) *output {
		// A fixed op count, so both runs write the same data.
		cfg := config{w: tiny(w), seed: 5, seconds: time.Minute, opsPerCaller: 4000, wrap: wrap}
		out, err := cfg.run()
		if err != nil {
			t.Fatal(err)
		}
		if !out.summary.Correct {
			t.Fatalf("run failed: %v", out.detail["errors"])
		}
		return out
	}
	fast := run(nil).summary.Metrics
	slow := run(func(s kv) kv { return slowKV{s} }).summary.Metrics
	if d := slow["put_p50_us"].Value - fast["put_p50_us"].Value; d < float64(putDelay.Microseconds()) {
		t.Errorf("put_p50_us rose by %.1f µs with a %v sleep in Put", d, putDelay)
	}
	wa0, wa1 := fast["wa"].Value, slow["wa"].Value
	if bound := waBound(); wa1 < wa0*(1-bound) || wa1 > wa0*(1+bound) {
		t.Errorf("wa moved from %.4f to %.4f with a sleep in Put", wa0, wa1)
	}
}

func waBound() float64 {
	for _, d := range endToEnd {
		if d.name == "wa" {
			return d.bound
		}
	}
	panic("no wa metric")
}
