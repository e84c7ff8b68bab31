package experiments

import (
	"strings"
	"testing"
)

// gridScale is a miniature scale for the fan-out determinism checks:
// every cell finishes in tens of milliseconds but the full method ×
// partition × size grid is still exercised.
func gridScale() Scale {
	s := CI()
	s.DataScale = 0.06
	s.Rounds = 2
	s.SmallN = 4
	s.LargeN = 6
	s.K = 3
	s.Epochs = 1
	s.KSweep = []int{2, 3}
	s.Deltas = []float64{0.3, 0.6}
	s.DRLWarmup = 2
	s.DRLUpdates = 1
	return s
}

// TestGridOutputIdenticalAcrossWorkers is the experiments-level
// determinism gate: the concurrently executed Table 3 / Fig. 7 / Fig. 8
// grids must render byte-identical output at any engine width, because
// every cell derives all randomness from its own seed.
func TestGridOutputIdenticalAcrossWorkers(t *testing.T) {
	for _, id := range []string{"table3", "figure7", "figure8"} {
		id := id
		t.Run(id, func(t *testing.T) {
			seq := gridScale()
			seq.Workers = 1
			want, err := Run(id, seq, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3} {
				par := gridScale()
				par.Workers = workers
				got, err := Run(id, par, 1)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("workers=%d output differs from sequential:\n--- sequential ---\n%s\n--- workers=%d ---\n%s",
						workers, want, workers, got)
				}
			}
		})
	}
}

// TestConcurrentFanOutSmoke is the short-mode race smoke for the
// experiment grid runner: many independent cells on a small pool, with
// nested engine use inside every cell. The race detector build is the
// real assertion; here we only require completion and sane output.
func TestConcurrentFanOutSmoke(t *testing.T) {
	s := gridScale()
	s.Workers = 4
	out, err := Run("table3", s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "FedDRL") || !strings.Contains(out, "impr.(a)") {
		t.Fatalf("fan-out output missing expected rows:\n%s", out)
	}
}
