package sim

import "fmt"

// EquiEffective finds the buffer size at which a policy reaches the target
// hit ratio — the paper's equi-effective buffer size: "by increasing the
// number of buffer pages available, LRU-1 will eventually achieve an
// equivalent cache hit ratio, and we say that this happens when the number
// of buffer pages equals B(1)" (§4.1).
//
// ratio must return the policy's hit ratio at a given buffer size and is
// assumed non-decreasing up to simulation noise (true for every stack
// policy here). The search brackets the target by doubling from startB,
// bisects to adjacent integers, and linearly interpolates between their
// hit ratios, returning a smooth fractional size. maxB caps the search; if
// even maxB falls short, maxB and false are returned.
func EquiEffective(ratio func(buffer int) float64, target float64, startB, maxB int) (float64, bool) {
	if startB < 1 {
		startB = 1
	}
	if maxB < startB {
		panic(fmt.Sprintf("sim: maxB %d below startB %d", maxB, startB))
	}
	lo := startB
	loRatio := ratio(lo)
	if loRatio >= target {
		// Even the starting size meets the target; shrink toward 1.
		for lo > 1 {
			next := lo / 2
			r := ratio(next)
			if r >= target {
				lo, loRatio = next, r
				continue
			}
			return bisect(ratio, target, next, r, lo, loRatio), true
		}
		return float64(lo), true
	}
	// Double until the target is bracketed.
	hi, hiRatio := lo, loRatio
	for hiRatio < target {
		if hi >= maxB {
			return float64(maxB), false
		}
		lo, loRatio = hi, hiRatio
		hi *= 2
		if hi > maxB {
			hi = maxB
		}
		hiRatio = ratio(hi)
	}
	return bisect(ratio, target, lo, loRatio, hi, hiRatio), true
}

// bisect narrows (lo, hi] with ratios (loRatio < target <= hiRatio) down to
// adjacent integers and interpolates.
func bisect(ratio func(int) float64, target float64, lo int, loRatio float64, hi int, hiRatio float64) float64 {
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		r := ratio(mid)
		if r >= target {
			hi, hiRatio = mid, r
		} else {
			lo, loRatio = mid, r
		}
	}
	if hiRatio <= loRatio {
		return float64(hi)
	}
	frac := (target - loRatio) / (hiRatio - loRatio)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return float64(lo) + frac*float64(hi-lo)
}
