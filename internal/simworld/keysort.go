package simworld

import (
	"math"
	"slices"
)

// keyRec is a sort record: a float key, held as its sortableBits, and a
// payload. The payload's low 32 bits are the caller's value; sortKeyed
// overwrites the high 32 bits with the record's input position, so
// readers take uint32(val).
type keyRec struct {
	bits uint64
	val  uint64
}

func newKeyRec(key float64, v uint32) keyRec {
	return keyRec{bits: sortableBits(key), val: uint64(v)}
}

// key returns the record's float key.
func (r keyRec) key() float64 {
	return math.Float64frombits(r.bits ^ (uint64(int64(^r.bits)>>63) | 1<<63))
}

// sortableBits maps a float64 to a uint64 whose unsigned order is the
// float order (negatives flipped whole, positives above them).
func sortableBits(f float64) uint64 {
	b := math.Float64bits(f)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// cmpFloat is the three-way compare of two float keys, written with
// explicit < in both directions so cmpFloat(a, b) < 0 exactly when a < b.
// slices.SortFunc with it then leaves the permutation sort.Slice leaves
// with a < b: both run the same pdqsort. cmp.Compare would not do: it
// orders NaN, which a less-than comparator never does, and the two sorts
// could then part ways.
func cmpFloat(a, b float64) int {
	if a < b {
		return -1
	}
	if b < a {
		return 1
	}
	return 0
}

func cmpKeyRec(a, b keyRec) int { return cmpFloat(a.key(), b.key()) }

const (
	// radixMin is the size below which sortKeyed calls pdqsort directly:
	// a radix level costs its 256-bucket histogram whatever the input.
	radixMin = 256
	// radixInsertion is the bucket size below which the radix sort
	// finishes with an insertion sort.
	radixInsertion = 32
)

// sortKeyed sorts recs by key and leaves exactly the permutation
// slices.SortFunc(recs, cmpKeyRec) leaves — the one sort.Slice leaves
// with the same less, since both are the same pdqsort.
//
// It radix-sorts on the key bits in place, then checks the result.
// Distinct keys have one sorted order, which every correct sort, pdqsort
// included, produces. If two adjacent keys are equal under == (±0
// included) or a key is NaN, the order is not unique: each record is
// swapped back to the input position its payload carries, and pdqsort
// runs on its own input. Neither path allocates, so the generator's
// peak memory holds its largest sort's input once, not twice.
func sortKeyed(recs []keyRec) {
	n := len(recs)
	if n < radixMin || n > math.MaxUint32 {
		slices.SortFunc(recs, cmpKeyRec)
		return
	}
	for i := range recs {
		recs[i].val = uint64(uint32(recs[i].val)) | uint64(i)<<32
	}
	radixSort(recs, 56)

	prev := recs[0].key()
	unique := prev == prev
	for _, r := range recs[1:] {
		k := r.key()
		if k == prev || k != k {
			unique = false
			break
		}
		prev = k
	}
	if unique {
		return
	}
	for i := range recs {
		for p := int(recs[i].val >> 32); p != i; p = int(recs[i].val >> 32) {
			recs[i], recs[p] = recs[p], recs[i]
		}
	}
	slices.SortFunc(recs, cmpKeyRec)
}

// radixSort is an in-place MSD radix sort on bits, from the byte at
// shift down: each level permutes the records into 256 buckets by cycle
// swaps, skipping any byte every key shares, then sorts each bucket on
// the next byte.
func radixSort(recs []keyRec, shift uint) {
	var heads [256]int
	for {
		if len(recs) < radixInsertion {
			for i := 1; i < len(recs); i++ {
				r := recs[i]
				j := i
				for ; j > 0 && recs[j-1].bits > r.bits; j-- {
					recs[j] = recs[j-1]
				}
				recs[j] = r
			}
			return
		}
		heads = [256]int{}
		for _, r := range recs {
			heads[byte(r.bits>>shift)]++
		}
		if heads[byte(recs[0].bits>>shift)] < len(recs) {
			break
		}
		if shift == 0 {
			return
		}
		shift -= 8
	}

	var tails [256]int
	sum := 0
	for b, c := range heads {
		heads[b] = sum
		sum += c
		tails[b] = sum
	}
	for b := range heads {
		for heads[b] < tails[b] {
			r := recs[heads[b]]
			for d := int(byte(r.bits >> shift)); d != b; d = int(byte(r.bits >> shift)) {
				r, recs[heads[d]] = recs[heads[d]], r
				heads[d]++
			}
			recs[heads[b]] = r
			heads[b]++
		}
	}
	if shift == 0 {
		return
	}
	lo := 0
	for _, hi := range tails {
		if hi-lo > 1 {
			radixSort(recs[lo:hi], shift-8)
		}
		lo = hi
	}
}
