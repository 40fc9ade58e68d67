package bench

import (
	"testing"
)

// TestAblationEffectsMeasurable asserts that the ablation switches
// actually change the cost profile in the direction the paper's design
// arguments predict, at a small but non-trivial scale. Throughput is too
// noisy on shared CI hardware to assert on; device traffic and stall/cost
// accounting are deterministic enough.
func TestAblationEffectsMeasurable(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation measurement skipped in -short mode")
	}
	const valueSize = 1 << 10
	const n = 4000

	run := func(mutate func(*Config)) (wa float64, nvmWritten int64) {
		cfg := Config{Kind: MioDB} // no latency simulation: accounting only
		if mutate != nil {
			mutate(&cfg)
		}
		s, err := OpenStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := FillRandom(s, n, uint64(n), valueSize, 1, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		for _, d := range st.Devices {
			if d.Name == "nvm" {
				nvmWritten = d.BytesWritten
			}
		}
		return st.WriteAmplification, nvmWritten
	}

	baseWA, baseWritten := run(nil)

	// Copying merges must write strictly more NVM than zero-copy merges.
	copyWA, copyWritten := run(func(c *Config) { c.DisableZeroCopyMerge = true })
	if copyWA <= baseWA || copyWritten <= baseWritten {
		t.Errorf("no-zero-copy WA %.2f (traffic %d) not above baseline %.2f (%d)",
			copyWA, copyWritten, baseWA, baseWritten)
	}

	// Disabling the WAL must cut roughly 1× of user bytes from traffic.
	noWalWA, _ := run(func(c *Config) { c.DisableWAL = true })
	if noWalWA >= baseWA-0.5 {
		t.Errorf("no-WAL WA %.2f not ≈1 below baseline %.2f", noWalWA, baseWA)
	}
}
