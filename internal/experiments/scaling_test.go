package experiments

import (
	"fmt"
	"testing"
)

// TestWalkScalingGate is the bench-regression gate: the parallel walk at 4
// lanes must beat the serial walk — strictly — on both the mean cap-tree
// span and the median STW, and the full row set is emitted as
// BENCH_ckpt.json (to $BENCH_CKPT_OUT when set, as in the CI job).
func TestWalkScalingGate(t *testing.T) {
	s := QuickScale()
	rows, txt, err := WalkScaling(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", txt)

	writeBenchJSON(t, "BENCH_CKPT_OUT", benchDoc[ScalingRow]{Figure: "walk-scaling", Scale: s.Name, Rows: rows})

	for _, hybrid := range []bool{false, true} {
		for _, cores := range []int{2, 4, 8} {
			ser, ok1 := findScalingRow(rows, hybrid, cores, true)
			par, ok2 := findScalingRow(rows, hybrid, cores, false)
			if !ok1 || !ok2 {
				t.Fatalf("missing rows for hybrid=%v %d cores", hybrid, cores)
			}
			// The acceptance gate proper: strict improvement at 4 lanes.
			// CapTree (the phase this walk parallelizes) must drop in
			// both copy variants. End-to-end STW must drop in the COW
			// variant, where the pause is the walk itself; with hybrid
			// copy on, the workers' copy queue overlaps the serial walk
			// for free, so STW there shows the documented scheduling
			// tradeoff rather than the walk speedup (DESIGN.md).
			if cores == 4 {
				if par.CapTreeUs >= ser.CapTreeUs {
					t.Errorf("hybrid=%v 4 lanes: parallel CapTree %.2fµs not strictly below serial %.2fµs",
						hybrid, par.CapTreeUs, ser.CapTreeUs)
				}
				if !hybrid && par.STWp50Us >= ser.STWp50Us {
					t.Errorf("cow 4 lanes: parallel STW p50 %.2fµs not strictly below serial %.2fµs",
						par.STWp50Us, ser.STWp50Us)
				}
			}
			// Sanity at every multi-core point: the parallel walk's total
			// charged work must not be below the serial span (overhead is
			// never negative).
			if par.WalkWorkUs < ser.CapTreeUs {
				t.Errorf("hybrid=%v %d lanes: parallel WalkWork %.2fµs below serial CapTree %.2fµs",
					hybrid, cores, par.WalkWorkUs, ser.CapTreeUs)
			}
		}
		// 1 core: the parallel config falls back to the serial path, so
		// the two rows must agree exactly.
		ser1, _ := findScalingRow(rows, hybrid, 1, true)
		par1, _ := findScalingRow(rows, hybrid, 1, false)
		if ser1.STWp50Us != par1.STWp50Us || ser1.CapTreeUs != par1.CapTreeUs {
			t.Errorf("hybrid=%v 1 core: serial and parallel rows diverge: %+v vs %+v", hybrid, ser1, par1)
		}
	}
}

// BenchmarkCheckpointWalk reports the simulated STW and cap-tree time per
// checkpoint for serial vs parallel at each core count, for
// `go test -bench` comparisons (the wall-clock ns/op of the simulator is
// not the quantity of interest; the custom sim-µs metrics are).
func BenchmarkCheckpointWalk(b *testing.B) {
	s := QuickScale()
	s.RunMillis = 5
	for _, cores := range []int{1, 4} {
		for _, serial := range []bool{true, false} {
			name := fmt.Sprintf("cores=%d/serial=%v", cores, serial)
			b.Run(name, func(b *testing.B) {
				var stw, capTree float64
				var rounds int
				for i := 0; i < b.N; i++ {
					rows, _, err := WalkScaling(s)
					if err != nil {
						b.Fatal(err)
					}
					r, _ := findScalingRow(rows, false, cores, serial)
					stw += r.STWp50Us
					capTree += r.CapTreeUs
					rounds += r.Rounds
				}
				b.ReportMetric(stw/float64(b.N), "sim-stw-p50-µs")
				b.ReportMetric(capTree/float64(b.N), "sim-captree-µs")
			})
		}
	}
}

// findScalingRow returns the row for (hybrid, cores, serial), or false.
func findScalingRow(rows []ScalingRow, hybrid bool, cores int, serial bool) (ScalingRow, bool) {
	for _, r := range rows {
		if r.Hybrid == hybrid && r.Cores == cores && r.Serial == serial {
			return r, true
		}
	}
	return ScalingRow{}, false
}
