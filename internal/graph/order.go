package graph

import (
	"fmt"
	"math/bits"
)

// maxDigitBits caps one radix digit at 2^11 buckets: n = 10 000 (27 key
// bits) sorts in three passes of 9 bits, n = 64 in two of 6, and n =
// 2^24 in five. Wider digits measured slower at n = 10 000 (two passes
// of 14 bits lost to three of 9), and a small graph would clear a count
// table far longer than its edge list.
const maxDigitBits = 11

// SortEdges puts es into (U, V) order — the order Edges lists a graph's
// edges in — in time linear in len(es). It is an LSD radix sort over the
// pair key U·n+V, with its digits sized from n; every endpoint must lie
// in [0, n), n ≤ 2^32, and it panics on one that does not. The sort is
// stable, so on distinct (U, V) pairs its order is that of any
// comparison sort by (U, V).
func SortEdges(es []Edge, n int) {
	nn := uint64(n)
	for _, e := range es {
		if uint64(e.U) >= nn || uint64(e.V) >= nn {
			panic(fmt.Sprintf("graph: edge (%d, %d) outside [0, %d)", e.U, e.V, n))
		}
	}
	if len(es) < 2 || n < 2 {
		return // at most one distinct key
	}
	keyBits := uint(bits.Len64(nn*nn - 1))
	passes := (keyBits + maxDigitBits - 1) / maxDigitBits
	digit := (keyBits + passes - 1) / passes
	mask := uint64(1)<<digit - 1
	count := make([]int, mask+1)
	src, dst := es, make([]Edge, len(es))
	for shift := uint(0); shift < keyBits; shift += digit {
		clear(count)
		for _, e := range src {
			count[pairKey(e, nn)>>shift&mask]++
		}
		if count[pairKey(src[0], nn)>>shift&mask] == len(src) {
			continue // every key has this digit: the pass moves nothing
		}
		sum := 0
		for d, k := range count {
			count[d] = sum
			sum += k
		}
		for _, e := range src {
			d := pairKey(e, nn) >> shift & mask
			dst[count[d]] = e
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &es[0] {
		copy(es, src)
	}
}

// pairKey is the edge's rank among the pairs of [0, n)², in (U, V) order.
func pairKey(e Edge, n uint64) uint64 { return uint64(e.U)*n + uint64(e.V) }
