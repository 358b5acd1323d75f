package coterie

import "math"

// Alias is a Walker alias table: O(n) construction over a non-negative
// weight vector, O(1) weighted sampling with a single 64-bit uniform draw
// and no heap allocations. The optimized quorum strategies build one table
// per recompute tick and sample it on every request, so Pick is the hot
// path and must stay allocation-free (gated by TestAliasPickAllocs).
type Alias struct {
	n      int
	prob   []uint32 // prob[i]/2^32 = probability of keeping slot i
	remap  []int32  // alias slot used when the biased coin rejects i
	weight []float64
}

// aliasScale converts a [0,1) probability into the fixed-point prob space.
const aliasScale = float64(1 << 32)

// NewAlias builds the table for the given weights. Negative and NaN
// weights are treated as zero. If every weight is zero (or the slice is
// empty) the table is degenerate and Pick returns uniform slots so callers
// never lose liveness to a bad solver output.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	a := &Alias{
		n:      n,
		prob:   make([]uint32, n),
		remap:  make([]int32, n),
		weight: make([]float64, n),
	}
	var sum float64
	for i, w := range weights {
		if w > 0 && w == w { // drop negatives and NaN
			a.weight[i] = w
			sum += w
		}
	}
	if n == 0 {
		return a
	}
	if sum <= 0 {
		// Degenerate: uniform table.
		for i := range a.prob {
			a.prob[i] = ^uint32(0)
			a.remap[i] = int32(i)
		}
		return a
	}
	// Standard Vose construction: scale weights to mean 1, split into
	// small (<1) and large (>=1) work lists, pair them off.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range a.weight {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		p := scaled[s] * aliasScale
		if p >= aliasScale {
			a.prob[s] = ^uint32(0)
		} else {
			a.prob[s] = uint32(p)
		}
		a.remap[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Numerical leftovers on either list take the full slot.
	for _, i := range large {
		a.prob[i] = ^uint32(0)
		a.remap[i] = i
	}
	for _, i := range small {
		a.prob[i] = ^uint32(0)
		a.remap[i] = i
	}
	return a
}

// Len returns the number of slots in the table.
func (a *Alias) Len() int { return a.n }

// Weight returns the (unnormalized) weight slot i was built with.
func (a *Alias) Weight(i int) float64 { return a.weight[i] }

// Pick maps one 64-bit draw to a slot index distributed according to the
// table's weights. It performs no heap allocations. The draw is first run
// through the splitmix64 finalizer — a bijection, so an already-uniform
// input stays uniform — because callers feed hints that are not uniform
// over the full word: the core strategy engine's hint() is int(x>>1),
// whose top bit is always zero, and without the remix the biased coin
// (high 32 bits) would only ever range over half its space, doubling
// every keep-probability. After the remix the low 32 bits choose the
// column and the high 32 bits flip the coin. An empty or nil table
// returns -1.
func (a *Alias) Pick(u uint64) int {
	if a == nil || a.n == 0 {
		return -1
	}
	u += 0x9e3779b97f4a7c15
	u = (u ^ (u >> 30)) * 0xbf58476d1ce4e5b9
	u = (u ^ (u >> 27)) * 0x94d049bb133111eb
	u ^= u >> 31
	// Lemire-style range reduction of the low word onto [0, n).
	i := int(uint64(uint32(u)) * uint64(a.n) >> 32)
	if uint32(u>>32) <= a.prob[i] {
		return i
	}
	return int(a.remap[i])
}

// Entropy returns the Shannon entropy of the normalized weight vector in
// bits. Uniform over n slots gives log2(n); a point mass gives 0. The
// strategy layer publishes it so operators can see distribution collapse.
func (a *Alias) Entropy() float64 {
	var sum float64
	for _, w := range a.weight {
		sum += w
	}
	if sum <= 0 {
		if a.n <= 1 {
			return 0
		}
		return math.Log2(float64(a.n))
	}
	var h float64
	for _, w := range a.weight {
		if w <= 0 {
			continue
		}
		p := w / sum
		h -= p * math.Log2(p)
	}
	return h
}
