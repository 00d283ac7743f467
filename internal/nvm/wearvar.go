package nvm

import (
	"math"
	"slices"
	"sort"
)

// WearVariation is the inter/intra-set wear-variation metric family: how
// unevenly writes have landed across the array. The coloring schemes
// exist to shrink InterSetCoV; Gini and WearMin complete the picture
// (a scheme can flatten the row means while starving one frame).
type WearVariation struct {
	// InterSetCoV is the coefficient of variation (stddev/mean) of the
	// per-row mean frame wear — the set-dimension imbalance the paper's
	// intra-set policies cannot touch. 0 when the mean wear is 0.
	InterSetCoV float64
	// IntraSetCoV is the mean over rows of each row's within-row frame
	// wear CoV — the way-dimension imbalance the insertion policies and
	// the wear-level counter attack.
	IntraSetCoV float64
	// WearMin and WearMax bound the per-frame wear distribution.
	WearMin float64
	WearMax float64
	// Gini is the Gini coefficient of per-frame wear (0 = perfectly
	// level, →1 = all wear on one frame). 0 when total wear is 0.
	Gini float64
}

// RowWearInto fills dst (length sets) with each row's total frame wear,
// iterating frames in set-major order, so the sums associate
// identically wherever they are computed (LLC gauges, cmd/wearmap).
func RowWearInto(dst []float64, frames []*Frame, sets, ways int) []float64 {
	for s := 0; s < sets; s++ {
		var t float64
		for w := 0; w < ways; w++ {
			t += frames[s*ways+w].Wear()
		}
		dst[s] = t
	}
	return dst
}

// wearScratch is the storage one metric pass needs: the per-row mean
// wear and the per-frame wear the Gini coefficient sorts. An Array owns
// one, so its registry snapshots allocate nothing.
type wearScratch struct {
	rowMeans, wears []float64
}

// WearVariationOf computes the metric family over an explicit set-major
// frame slice (Array.WearVariation is it over the array's own frames).
// A nil/empty slice or mismatched geometry yields the zero value.
func WearVariationOf(frames []*Frame, sets, ways int) WearVariation {
	return wearVariationInto(&wearScratch{}, frames, sets, ways)
}

// wearVariationInto is WearVariationOf over caller-owned scratch, grown
// only when its capacity is short.
func wearVariationInto(sc *wearScratch, frames []*Frame, sets, ways int) WearVariation {
	var wv WearVariation
	if len(frames) == 0 || sets < 1 || ways < 1 || sets*ways != len(frames) {
		return wv
	}
	wv.WearMin = math.Inf(1)
	var rowMeanSum float64
	sc.rowMeans = slices.Grow(sc.rowMeans[:0], sets)[:sets]
	rowMeans := sc.rowMeans
	for s := 0; s < sets; s++ {
		var sum float64
		for w := 0; w < ways; w++ {
			wear := frames[s*ways+w].Wear()
			sum += wear
			if wear < wv.WearMin {
				wv.WearMin = wear
			}
			if wear > wv.WearMax {
				wv.WearMax = wear
			}
		}
		rowMeans[s] = sum / float64(ways)
		rowMeanSum += rowMeans[s]
	}
	mean := rowMeanSum / float64(sets)
	if mean > 0 {
		var varSum float64
		for _, m := range rowMeans {
			d := m - mean
			varSum += d * d
		}
		wv.InterSetCoV = math.Sqrt(varSum/float64(sets)) / mean
	}
	var intraSum float64
	for s := 0; s < sets; s++ {
		if rowMeans[s] <= 0 {
			continue
		}
		var varSum float64
		for w := 0; w < ways; w++ {
			d := frames[s*ways+w].Wear() - rowMeans[s]
			varSum += d * d
		}
		intraSum += math.Sqrt(varSum/float64(ways)) / rowMeans[s]
	}
	wv.IntraSetCoV = intraSum / float64(sets)
	sc.wears = slices.Grow(sc.wears[:0], len(frames))[:len(frames)]
	wv.Gini = giniOfFrames(frames, sc.wears)
	return wv
}

// giniOfFrames computes the Gini coefficient of per-frame wear via the
// sorted-order formula G = (2·Σ i·x_i)/(n·Σ x) − (n+1)/n with 1-based
// ranks over ascending x. xs (length len(frames)) is its scratch.
func giniOfFrames(frames []*Frame, xs []float64) float64 {
	n := len(frames)
	var total float64
	for i, f := range frames {
		xs[i] = f.Wear()
		total += xs[i]
	}
	if total <= 0 {
		return 0
	}
	sort.Float64s(xs)
	var weighted float64
	for i, x := range xs {
		weighted += float64(i+1) * x
	}
	return 2*weighted/(float64(n)*total) - float64(n+1)/float64(n)
}

// WearVariation computes the metric family for the array's own frames,
// in the array's scratch: after the first call it allocates nothing.
func (a *Array) WearVariation() WearVariation {
	return wearVariationInto(&a.wv, a.frames, a.sets, a.ways)
}
