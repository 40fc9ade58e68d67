// Command perfbench is the repository's benchmark. It runs one closed-loop
// workload against the MioDB engine, checks every answer against an exact
// oracle, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer ledger) as the last line of standard output:
//
//	go run . --workload read_zipf_128 --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, metric definitions and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	out, err := cfg.run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(out.detail); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := enc.Encode(out.summary); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !out.summary.Correct {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type output struct {
	summary summary
	detail  map[string]any // printed on the line before the summary
}

func (cfg *config) run() (*output, error) {
	if cfg.trace {
		return cfg.runTraced()
	}
	length := cfg.seconds / segments
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d segments of %v\n", cfg.w.name, cfg.seed, segments, length)
	segs := make([]*segment, segments)
	for i := range segs {
		s, err := cfg.runSegment(i, length, false)
		if err != nil {
			return nil, err
		}
		segs[i] = s
	}
	out := finish(cfg.w, endToEnd, runMetrics(segs), segs)
	out.detail["latency"] = latencyReports(segs)
	var setups, drains, was []float64
	for _, s := range segs {
		setups = append(setups, s.setup.Seconds())
		drains = append(drains, ms(s.timed.drain))
		was = append(was, s.total.WriteAmplification)
	}
	out.detail["setup_s"] = setups
	out.detail["drain_ms"] = drains
	out.detail["engine_wa"] = was
	return out, nil
}

// tally counts attempted and failed operations over the segments, including
// the check that the benchmark's write amplification is the engine's own
// figure over the same phase.
func tally(segs []*segment) (attempted, failed int64, errs []string) {
	for _, p := range segs {
		for _, ph := range []*phase{&p.timed.phase, p.sweep} {
			attempted += ph.ops
			failed += ph.failed
			errs = append(errs, ph.errs...)
		}
		if got, want := writeAmp(p), p.total.WriteAmplification; !approxEqual(got, want) {
			errs = append(errs, fmt.Sprintf("wa %.6f differs from Stats().WriteAmplification %.6f", got, want))
			failed++
		}
	}
	return attempted, failed, errs
}

// finish attaches units, reports what could not be measured and decides
// correctness.
func finish(w workload, defs []metricDef, r *results, segs []*segment) *output {
	out := &output{detail: map[string]any{"workload": w.name}}
	s := &out.summary
	var errs []string
	s.Attempted, s.Failed, errs = tally(segs)
	s.Metrics = map[string]metricValue{}
	for _, d := range defs {
		if v, ok := r.values[d.name]; ok {
			s.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	if len(r.missing) > 0 {
		out.detail["missing"] = r.missing
	}
	if len(errs) > 0 {
		out.detail["errors"] = errs
	}
	return out
}

func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(b))
}
