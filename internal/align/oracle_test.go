package align

import (
	"fmt"
	"math"
	"strings"
)

// The scalar verifiers the bit-parallel Verifier replaced, kept verbatim as
// its differential oracle (identifiers prefixed with "oracle"):
// oracleDistanceBanded is Ukkonen's banded DP over two rolling rows, and
// oracleAlign materializes one band row per read base and traces back with
// the priority order the Verifier must reproduce byte for byte.

// oracleDistanceBanded computes the global edit distance between a and b if it
// does not exceed maxDist, using Ukkonen's banded DP in O((max+1)·len) time.
// It returns (distance, true) when distance ≤ maxDist and (0, false)
// otherwise. This was the mapper's verification kernel — the
// computationally-expensive stage the pre-alignment filter protects.
func oracleDistanceBanded(a, b []byte, maxDist int) (int, bool) {
	m, n := len(a), len(b)
	if maxDist < 0 {
		return 0, false
	}
	if abs(m-n) > maxDist {
		return 0, false
	}
	if m == 0 {
		return n, n <= maxDist
	}
	if n == 0 {
		return m, m <= maxDist
	}
	// Band half-width: cells with |i-j| > maxDist can never contribute.
	const inf = math.MaxInt32
	width := 2*maxDist + 1
	prev := make([]int, width)
	cur := make([]int, width)
	// Row 0: D[0][j] = j for j in [0, maxDist].
	for k := 0; k < width; k++ {
		j := k - maxDist // column offset relative to diagonal of row 0
		if j >= 0 && j <= n && j <= maxDist {
			prev[k] = j
		} else {
			prev[k] = inf
		}
	}
	for i := 1; i <= m; i++ {
		rowMin := inf
		for k := 0; k < width; k++ {
			j := i + k - maxDist
			if j < 0 || j > n {
				cur[k] = inf
				continue
			}
			best := inf
			if j == 0 {
				best = i
			} else {
				// Substitution / match: prev row, same k (diagonal).
				if prev[k] != inf {
					cost := 1
					if a[i-1] == b[j-1] {
						cost = 0
					}
					best = prev[k] + cost
				}
				// Deletion from a: prev row, k+1.
				if k+1 < width && prev[k+1] != inf && prev[k+1]+1 < best {
					best = prev[k+1] + 1
				}
				// Insertion into a: current row, k-1.
				if k-1 >= 0 && cur[k-1] != inf && cur[k-1]+1 < best {
					best = cur[k-1] + 1
				}
			}
			cur[k] = best
			if best < rowMin {
				rowMin = best
			}
		}
		if rowMin > maxDist {
			return 0, false
		}
		prev, cur = cur, prev
	}
	k := n - m + maxDist
	if k < 0 || k >= width || prev[k] > maxDist {
		return 0, false
	}
	return prev[k], true
}

// oracleAlignment is the result of a global alignment with traceback.
type oracleAlignment struct {
	Distance int
	Ops      []Op // one entry per alignment column, read-major order
}

// CIGAR renders the operations run-length encoded, extended style
// (=/X/I/D). Use CIGARCompat for the classic M-style string.
func (a oracleAlignment) CIGAR() string {
	return oracleRenderCigar(a.Ops, func(op Op) byte { return byte(op) })
}

// CIGARCompat renders the classic SAM CIGAR where matches and mismatches
// both appear as 'M'.
func (a oracleAlignment) CIGARCompat() string {
	return oracleRenderCigar(a.Ops, func(op Op) byte {
		if op == OpMatch || op == OpMismatch {
			return 'M'
		}
		return byte(op)
	})
}

func oracleRenderCigar(ops []Op, classify func(Op) byte) string {
	if len(ops) == 0 {
		return "*"
	}
	var sb strings.Builder
	runClass := classify(ops[0])
	runLen := 1
	for _, op := range ops[1:] {
		c := classify(op)
		if c == runClass {
			runLen++
			continue
		}
		fmt.Fprintf(&sb, "%d%c", runLen, runClass)
		runClass, runLen = c, 1
	}
	fmt.Fprintf(&sb, "%d%c", runLen, runClass)
	return sb.String()
}

// oracleAlign computes a global alignment of a (the read) against b within a
// banded edit-distance budget, returning the distance and traceback. It
// returns ok=false when the distance exceeds maxDist. The full DP band is
// materialized for traceback, so memory is O((2·maxDist+1)·len(a)).
func oracleAlign(a, b []byte, maxDist int) (oracleAlignment, bool) {
	m, n := len(a), len(b)
	if maxDist < 0 || abs(m-n) > maxDist {
		return oracleAlignment{}, false
	}
	const inf = int(^uint(0) >> 2)
	width := 2*maxDist + 1
	// rows[i][k] is D[i][j] with j = i + k - maxDist.
	rows := make([][]int, m+1)
	for i := range rows {
		rows[i] = make([]int, width)
		for k := range rows[i] {
			rows[i][k] = inf
		}
	}
	for k := 0; k < width; k++ {
		if j := k - maxDist; j >= 0 && j <= n && j <= maxDist {
			rows[0][k] = j
		}
	}
	for i := 1; i <= m; i++ {
		rowMin := inf
		for k := 0; k < width; k++ {
			j := i + k - maxDist
			if j < 0 || j > n {
				continue
			}
			best := inf
			if j == 0 {
				best = i
			} else {
				if rows[i-1][k] != inf {
					cost := 1
					if a[i-1] == b[j-1] {
						cost = 0
					}
					best = rows[i-1][k] + cost
				}
				if k+1 < width && rows[i-1][k+1] != inf && rows[i-1][k+1]+1 < best {
					best = rows[i-1][k+1] + 1
				}
				if k-1 >= 0 && rows[i][k-1] != inf && rows[i][k-1]+1 < best {
					best = rows[i][k-1] + 1
				}
			}
			rows[i][k] = best
			if best < rowMin {
				rowMin = best
			}
		}
		if rowMin > maxDist {
			return oracleAlignment{}, false
		}
	}
	endK := n - m + maxDist
	if endK < 0 || endK >= width || rows[m][endK] > maxDist {
		return oracleAlignment{}, false
	}

	// Traceback from (m, n).
	var ops []Op
	i, k := m, endK
	for {
		j := i + k - maxDist
		if i == 0 && j == 0 {
			break
		}
		cur := rows[i][k]
		switch {
		case i > 0 && j > 0 && rows[i-1][k] != inf &&
			((a[i-1] == b[j-1] && rows[i-1][k] == cur) ||
				(a[i-1] != b[j-1] && rows[i-1][k]+1 == cur)):
			if a[i-1] == b[j-1] {
				ops = append(ops, OpMatch)
			} else {
				ops = append(ops, OpMismatch)
			}
			i--
		case i > 0 && k+1 < width && rows[i-1][k+1] != inf && rows[i-1][k+1]+1 == cur:
			// Consumed a read base without a reference base.
			ops = append(ops, OpIns)
			i--
			k++
		case j > 0 && k-1 >= 0 && rows[i][k-1] != inf && rows[i][k-1]+1 == cur:
			ops = append(ops, OpDel)
			k--
		case j == 0:
			ops = append(ops, OpIns)
			i--
			k++
		default:
			// Unreachable when the DP is consistent.
			return oracleAlignment{}, false
		}
	}
	// Reverse into read-major order.
	for lo, hi := 0, len(ops)-1; lo < hi; lo, hi = lo+1, hi-1 {
		ops[lo], ops[hi] = ops[hi], ops[lo]
	}
	return oracleAlignment{Distance: rows[m][endK], Ops: ops}, true
}
