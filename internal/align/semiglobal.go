package align

// DistanceSemiGlobal returns the minimum edit distance between the pattern
// and any infix of the text — Edlib's HW mode, where gaps before and after
// the pattern's placement in the text are free. It runs the blocked Myers
// algorithm with a zero first row (hin = 0) and tracks the minimum of the
// last DP row across columns. mrFAST-style verification against an extended
// window (read length + 2e) uses exactly this mode.
func DistanceSemiGlobal(pattern, text []byte) int {
	m, n := len(pattern), len(text)
	if m == 0 {
		return 0
	}
	if n == 0 {
		return m
	}
	blocks := (m + wordBits - 1) / wordBits
	peq := buildPeq(pattern, blocks)
	zero := make([]uint64, blocks)

	pv := make([]uint64, blocks)
	mv := make([]uint64, blocks)
	for i := range pv {
		pv[i] = ^uint64(0)
	}
	lastBit := uint((m - 1) % wordBits)
	score := m
	best := m
	for j := 0; j < n; j++ {
		eqAll := peq[text[j]]
		if eqAll == nil {
			eqAll = zero
		}
		hp, hn := uint64(0), uint64(0) // HW mode: the first DP row is all zeros
		for blk := 0; blk < blocks; blk++ {
			pv[blk], mv[blk], hp, hn = myersStep(pv[blk], mv[blk], eqAll[blk], hp, hn,
				outBit(blk, blocks, lastBit))
		}
		score += int(hp) - int(hn)
		if score < best {
			best = score
		}
	}
	return best
}

// DistancePrefix returns the minimum edit distance between the pattern and
// any prefix of the text — Edlib's SHW mode, where only the gap after the
// pattern is free.
func DistancePrefix(pattern, text []byte) int {
	m, n := len(pattern), len(text)
	if m == 0 {
		return 0
	}
	if n == 0 {
		return m
	}
	blocks := (m + wordBits - 1) / wordBits
	peq := buildPeq(pattern, blocks)
	zero := make([]uint64, blocks)

	pv := make([]uint64, blocks)
	mv := make([]uint64, blocks)
	for i := range pv {
		pv[i] = ^uint64(0)
	}
	lastBit := uint((m - 1) % wordBits)
	score := m
	best := m
	for j := 0; j < n; j++ {
		eqAll := peq[text[j]]
		if eqAll == nil {
			eqAll = zero
		}
		hp, hn := uint64(1), uint64(0) // SHW mode: leading text must be consumed (first row 0..n)
		for blk := 0; blk < blocks; blk++ {
			pv[blk], mv[blk], hp, hn = myersStep(pv[blk], mv[blk], eqAll[blk], hp, hn,
				outBit(blk, blocks, lastBit))
		}
		score += int(hp) - int(hn)
		if score < best {
			best = score
		}
	}
	return best
}

// refSemiGlobalDP is the quadratic reference for DistanceSemiGlobal,
// exported to the tests via the package (kept here so the mode definitions
// sit next to their oracle).
func refSemiGlobalDP(pattern, text []byte, freeStart bool) int {
	m, n := len(pattern), len(text)
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for j := 0; j <= n; j++ {
		if freeStart {
			prev[j] = 0
		} else {
			prev[j] = j
		}
	}
	for i := 1; i <= m; i++ {
		cur[0] = i
		for j := 1; j <= n; j++ {
			cost := 1
			if pattern[i-1] == text[j-1] {
				cost = 0
			}
			best := prev[j-1] + cost
			if prev[j]+1 < best {
				best = prev[j] + 1
			}
			if cur[j-1]+1 < best {
				best = cur[j-1] + 1
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	best := prev[0]
	for j := 1; j <= n; j++ {
		if prev[j] < best {
			best = prev[j]
		}
	}
	return best
}
