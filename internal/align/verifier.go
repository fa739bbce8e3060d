package align

import (
	"bytes"
	"math/bits"
)

// Verifier is the mapper's verification kernel: it decides whether a read
// aligns globally to a reference window within e edits and, for a pair that
// does, recovers the alignment. It runs Hyyrö's blocked form of Myers'
// bit-vector algorithm with the read as the pattern (one bit per read base,
// 64 per block), computes column by column only the blocks that meet the
// band of cells an alignment of at most e edits can pass through (Edlib's
// block banding), and gives up once the end cell's diagonal exceeds e
// (Ukkonen's cut-off).
//
// A Verifier keeps all of its scratch (match vectors, per-column Pv/Mv
// words, the op and CIGAR buffers) between calls: after the first pair of a
// given size, Verify, Ops and CIGAR allocate nothing. The zero value is
// ready to use. A Verifier is not safe for concurrent use; give each worker
// its own.
type Verifier struct {
	// Match vectors of the current read: slot[c] is the offset in eq of
	// byte c's blocks-word vector, and offset 0 holds the all-zero vector
	// every byte absent from the read shares. used lists the bytes holding
	// a vector so the next read can clear them.
	slot    [256]int32
	used    [256]byte
	nused   int
	eq      []uint64
	pattern []byte // the read eq was built from, copied

	// Forward-pass state per block: the current column's Pv/Mv words and
	// the DP value at the block's last row.
	pv, mv []uint64
	score  []int

	// Per-column record kept for traceback. Column j computed blocks
	// first[j]..last[j]; block b of column j sits at index
	// j*stride + b - first[j] of cpv/cmv/cbase, and cbase holds the DP value
	// at row 64·b of that column, the row just above the block.
	first, last []int
	cpv, cmv    []uint64
	cbase       []int
	stride      int

	// The last pair and its outcome; ref aliases the caller's slice.
	ref    []byte
	m, n   int
	blocks int
	dist   int
	ok     bool

	ops   []Op // traceback of the last accepted pair, once computed
	opBuf []Op
	cigar []byte
}

// inf stands for a cell the banded pass did not compute; any cell off every
// alignment of at most e edits may be left out, since traceback and the
// cut-off only ever need cells that lie on one.
const inf = int(^uint(0) >> 2)

// Verify reports the global edit distance between read and ref when it is
// at most e, as (distance, true), and (0, false) otherwise. Like Distance it
// treats every byte as an ordinary symbol: 'N' matches only 'N'. ref must
// stay unchanged while Ops or CIGAR of this pair is still to be read.
func (v *Verifier) Verify(read, ref []byte, e int) (int, bool) {
	v.ref = ref
	v.ok, v.ops = false, nil
	m, n := len(read), len(ref)
	if e < 0 || abs(m-n) > e {
		return 0, false
	}
	v.reserve(m, n, e)
	// A mapper verifies each read against several windows in a row, and the
	// match vectors depend on the read alone: rebuild them only when it
	// changes.
	if !bytes.Equal(read, v.pattern) {
		v.pattern = append(v.pattern[:0], read...)
		v.loadRead()
	}
	v.dist, v.ok = v.run(e)
	if !v.ok {
		return 0, false
	}
	return v.dist, true
}

// band returns the diagonal range (row − column) of the cells an alignment
// of at most e edits can visit. Reaching diagonal d costs at least |d| and
// getting from it to the end cell's diagonal m−n at least |m−n−d| more, so
// |d| + |m−n−d| ≤ e. The caller guarantees |m−n| ≤ e.
//
//gk:noalloc
func band(m, n, e int) (dlo, dhi int) {
	delta := m - n
	return -((e - delta) / 2), (e + delta) / 2
}

// reserve sizes the scratch for an m×n pair at threshold e. It allocates
// only when a pair outgrows every earlier one.
func (v *Verifier) reserve(m, n, e int) {
	blocks := (m + wordBits - 1) / wordBits
	dlo, dhi := band(m, n, e)
	stride := (dhi-dlo+wordBits-1)/wordBits + 1 // blocks a band of dhi-dlo+1 rows can meet
	if stride > blocks {
		stride = blocks
	}
	v.m, v.n, v.blocks, v.stride = m, n, blocks, stride
	distinct := m
	if distinct > 256 {
		distinct = 256
	}
	if need := (distinct + 1) * blocks; cap(v.eq) < need {
		v.eq = make([]uint64, need)
		v.pattern = v.pattern[:0] // its match vectors stayed in the old buffer
	}
	v.pv, v.mv, v.score = grow(v.pv, blocks), grow(v.mv, blocks), grow(v.score, blocks)
	v.first, v.last = grow(v.first, n+1), grow(v.last, n+1)
	cols := (n + 1) * stride
	v.cpv, v.cmv, v.cbase = grow(v.cpv, cols), grow(v.cmv, cols), grow(v.cbase, cols)
	v.opBuf = grow(v.opBuf, m+n)
	// A run of r ops renders in at most 2r bytes, and "*" in one.
	v.cigar = grow(v.cigar, 2*(m+n)+1)
}

// grow returns s resized to n, reallocating only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// run is the distance pass over the pair reserve sized. Column j covers
// rows j+dlo..j+dhi of the band; blocks enter at the bottom and leave at the
// top as the band slides down, and each column is recorded for traceback.
//
//gk:noalloc
func (v *Verifier) run(e int) (int, bool) {
	m, n, blocks, stride := v.m, v.n, v.blocks, v.stride
	if m == 0 {
		return n, n <= e
	}
	dlo, dhi := band(m, n, e)
	delta := m - n
	lastBit := uint((m - 1) % wordBits)
	pvs, mvs, score := v.pv[:blocks], v.mv[:blocks], v.score[:blocks]
	cpv, cmv, cbase := v.cpv, v.cmv, v.cbase
	first, last := v.first[:n+1], v.last[:n+1]
	eqs, slot, ref := v.eq, &v.slot, v.ref[:n]

	// Column 0 is D[i][0] = i: every vertical delta is +1.
	for b := range pvs {
		pvs[b], mvs[b] = ^uint64(0), 0
		score[b] = rowsThrough(b, m)
	}
	fb, lb := 0, 0
	top := 0 // D at row 64·fb in the current column
	for j := 1; j <= n; j++ {
		lo, hi := j+dlo, j+dhi
		if lo < 1 {
			lo = 1
		}
		if hi > m {
			hi = m
		}
		nfb, nlb := blockOf(lo), blockOf(hi)
		// A block entering the band starts from an upper bound of the
		// previous column: D climbs by one per row below the block above.
		for lb < nlb {
			lb++
			pvs[lb], mvs[lb] = ^uint64(0), 0
			score[lb] = score[lb-1] + rowsThrough(lb, m) - rowsThrough(lb-1, m)
		}
		// A block leaving at the top hands its last row over as the new
		// first block's upper boundary.
		if nfb > fb {
			top = score[fb]
			fb = nfb
		}
		// Above the first computed block the band is left, so the boundary
		// row's horizontal delta is taken as +1: exact on row 0, an upper
		// bound elsewhere.
		top++
		eq := eqs[slot[ref[j-1]]:]
		rec := j * stride
		first[j], last[j] = fb, lb
		hp, hn := uint64(1), uint64(0)
		base := top
		for b := fb; b <= lb; b++ {
			var p, q uint64
			p, q, hp, hn = myersStep(pvs[b], mvs[b], eq[b], hp, hn, outBit(b, blocks, lastBit))
			pvs[b], mvs[b] = p, q
			cpv[rec], cmv[rec], cbase[rec] = p, q, base
			score[b] += int(hp) - int(hn)
			base = score[b]
			rec++
		}
		// Ukkonen cut-off: D never decreases along a diagonal, so the cell
		// on the end cell's diagonal bounds the final distance from below.
		// Checking every eighth column keeps the popcounts off most
		// columns and delays a rejection by at most seven.
		if i := j + delta; i >= 1 && (j%8 == 0 || j == n) {
			b := blockOf(i)
			r := j*stride + b - fb
			if d := rowValue(cbase[r], cpv[r], cmv[r], i-b*wordBits); d > e {
				return 0, false
			} else if j == n {
				return d, true
			}
		}
	}
	// Only reached when n == 0; |m−n| ≤ e was checked by Verify.
	return m, true
}

// blockOf returns the block holding read row i ≥ 1 (bit i−1).
//
//gk:noalloc
func blockOf(i int) int { return int(uint(i-1) / wordBits) }

// rowValue returns the DP value k rows into a block whose row above holds
// base: base + popcount(Pv & low k) − popcount(Mv & low k), for k in 0..64.
//
//gk:noalloc
func rowValue(base int, pv, mv uint64, k int) int {
	low := ^uint64(0) >> uint(wordBits-k)
	return base + bits.OnesCount64(pv&low) - bits.OnesCount64(mv&low)
}

// rowsThrough returns the number of read rows in blocks 0..b.
//
//gk:noalloc
func rowsThrough(b, m int) int {
	if r := (b + 1) * wordBits; r < m {
		return r
	}
	return m
}

// loadRead builds the match vectors of the current read.
//
//gk:noalloc
func (v *Verifier) loadRead() {
	slot, eq, blocks := &v.slot, v.eq, v.blocks
	for _, c := range v.used[:v.nused] {
		slot[c] = 0
	}
	clear(eq[:blocks])
	next := blocks // offset of the next unused vector
	nused := 0
	for i, c := range v.pattern {
		off := int(slot[c])
		if off == 0 {
			off = next
			next += blocks
			slot[c] = int32(off)
			v.used[nused] = c
			nused++
			clear(eq[off:next])
		}
		eq[off+int(uint(i)/wordBits)] |= 1 << (uint(i) % wordBits)
	}
	v.nused = nused
}

// cell returns D[i][j] as the banded pass computed it, or inf for a cell it
// left out, reading rows of block b off its stored vectors with rowValue.
//
//gk:noalloc
func (v *Verifier) cell(i, j int) int {
	if j == 0 || v.m == 0 {
		// Column 0 is D[i][0] = i; an empty read has only row 0, D[0][j] = j.
		return i + j
	}
	fb := v.first[j]
	b := (i - 1) >> 6 // -1 for row 0
	k := i - b*wordBits
	if b < fb {
		// Row 64·fb is the first block's stored boundary; rows above are out.
		if i != fb*wordBits {
			return inf
		}
		b, k = fb, 0
	} else if b > v.last[j] {
		return inf
	}
	rec := j*v.stride + b - fb
	return rowValue(v.cbase[rec], v.cpv[rec], v.cmv[rec], k)
}
