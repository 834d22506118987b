package dispatch

import "math"

// GoldenRatio is a low-discrepancy dispatcher based on the golden-ratio
// (Weyl) sequence: job k maps to the point frac(k·φ⁻¹) in [0,1), which is
// routed through the inverse CDF of the fraction vector. The Weyl sequence
// is the classic equidistributed sequence with optimal discrepancy
// O(log n / n), so realized shares track the targets closely over short
// windows — an independent alternative to the paper's Algorithm 2 with
// O(log n) selection instead of O(n).
//
// Compared with Algorithm 2, the golden-ratio dispatcher does not
// guarantee exact per-cycle counts for rational fraction vectors (its
// discrepancy is logarithmic, not O(1)), but it needs no per-computer
// state and its order is oblivious to the fraction values.
type GoldenRatio struct {
	cum []float64
	k   uint64
}

// invPhi is the fractional part generator 1/φ = φ−1.
const invPhi = 0.6180339887498949

// NewGoldenRatio returns a golden-ratio dispatcher over the fractions.
func NewGoldenRatio(fractions []float64) (*GoldenRatio, error) {
	fr, err := checkFractions(nil, fractions)
	if err != nil {
		return nil, err
	}
	cum := make([]float64, len(fr))
	run := 0.0
	for i, f := range fr {
		run += f
		cum[i] = run
	}
	cum[len(cum)-1] = 1
	return &GoldenRatio{cum: cum}, nil
}

func (g *GoldenRatio) Name() string { return "GR" }
func (g *GoldenRatio) N() int       { return len(g.cum) }

// Next maps the next Weyl point through the cumulative fractions with a
// binary search.
func (g *GoldenRatio) Next() int {
	g.k++
	u := math.Mod(float64(g.k)*invPhi, 1)
	// Binary search for the first cum[i] > u.
	lo, hi := 0, len(g.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.cum[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
