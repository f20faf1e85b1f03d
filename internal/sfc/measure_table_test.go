package sfc

import (
	"math"
	"testing"
)

// TestMeasurePinnedAcrossCurves pins the measured curve constants —
// exact distance-bound constant, alignment factor and continuity — for
// the named curves at several legal sides. These are the numbers
// `curvelab -measure` prints and the curve ordering below rests on, so
// they are pinned exactly: a drift here silently reorders the curves.
// The values themselves tell the paper's story — Hilbert and
// Moore hold α < 3 and stay 2-aligned at every side, Peano's constant
// is slightly worse on its 3^k grids, the snake's α grows like √side,
// and the Z curve's α and alignment blow up linearly (not
// distance-bound, which is why Theorem 2 treats it separately).
func TestMeasurePinnedAcrossCurves(t *testing.T) {
	if testing.Short() {
		t.Skip("quadratic exact scans")
	}
	cases := []struct {
		c          Curve
		side       int
		alpha      float64
		align      float64
		continuous bool
	}{
		{Hilbert{}, 8, 2.5, 2, true},
		{Hilbert{}, 16, 2.75, 2, true},
		{Hilbert{}, 32, 2.875, 2, true},
		{Moore{}, 8, 2.5, 2, true},
		{Moore{}, 16, 2.75, 2, true},
		{Moore{}, 32, 2.875, 2, true},
		{Peano{}, 9, 2.672612, 2.25, true},
		{Peano{}, 27, 3.078215, 2.25, true},
		{ZOrder{}, 8, 8, 4, false},
		{ZOrder{}, 16, 16, 8, false},
		{ZOrder{}, 32, 32, 16, false},
		{Snake{}, 8, 3, 2, true},
		{Snake{}, 16, 4.123106, 4, true},
		{Snake{}, 32, 5.744563, 4, true},
	}
	const tol = 1e-5
	for _, tc := range cases {
		db := MeasureDistanceBound(tc.c, tc.side)
		if math.Abs(db.Alpha-tc.alpha) > tol {
			t.Errorf("%s side %d: alpha = %.6f, pinned %.6f (witness i=%d j=%d)",
				tc.c.Name(), tc.side, db.Alpha, tc.alpha, db.ArgI, db.ArgJ)
		}
		if db.Curve != tc.c.Name() || db.Side != tc.side {
			t.Errorf("%s side %d: bound labeled %s/%d", tc.c.Name(), tc.side, db.Curve, db.Side)
		}
		if got := AlignmentFactor(tc.c, tc.side); math.Abs(got-tc.align) > tol {
			t.Errorf("%s side %d: alignment factor = %.6f, pinned %.6f", tc.c.Name(), tc.side, got, tc.align)
		}
		if got := IsContinuous(tc.c, tc.side); got != tc.continuous {
			t.Errorf("%s side %d: IsContinuous = %v, pinned %v", tc.c.Name(), tc.side, got, tc.continuous)
		}
	}
}

// TestMeasureTunerRankingStable pins the paper's curve ordering: the
// light-first energy bounds hold on distance-bound curves (Section
// III-B) with constants set by the curve's distance-bound constant α
// and alignment factor (Lemmas 3-4), so at every probe side quality
// (sampled α × alignment) must rank hilbert/moore ahead of peano ahead
// of snake ahead of zorder, which is not distance-bound. The default
// curve, Hilbert, is therefore never outranked outside that leading
// pair.
func TestMeasureTunerRankingStable(t *testing.T) {
	quality := func(c Curve, pts int) float64 {
		side := c.Side(pts)
		return MeasureDistanceBoundSampled(c, side).Alpha * AlignmentFactor(c, side)
	}
	for _, pts := range []int{256, 1024, 4096} {
		h, m := quality(Hilbert{}, pts), quality(Moore{}, pts)
		p, s, z := quality(Peano{}, pts), quality(Snake{}, pts), quality(ZOrder{}, pts)
		if h > p || m > p {
			t.Errorf("%d pts: hilbert %.3f / moore %.3f not ahead of peano %.3f", pts, h, m, p)
		}
		if p > s {
			t.Errorf("%d pts: peano %.3f not ahead of snake %.3f", pts, p, s)
		}
		if s > z {
			t.Errorf("%d pts: snake %.3f not ahead of zorder %.3f", pts, s, z)
		}
	}
}
