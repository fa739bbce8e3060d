package mapper

import (
	"fmt"
	"math"
	"sort"
)

// ReadPair is one mate pair from an FR (forward/reverse) paired-end library:
// R1 reads into the fragment from its left end, R2 from its right end on the
// opposite strand, exactly as Illumina sequencers emit them.
type ReadPair struct {
	R1, R2 []byte
}

// InsertWindow bounds the accepted fragment length (outer distance: leftmost
// mapped base of one mate to rightmost mapped base of the other) for a
// concordant pair. The zero value asks the mapper to estimate the window
// from the data (EstimateInsertWindow), as real mappers do; a window with
// exactly one bound set (the other zero) estimates just the missing bound,
// so callers can pin one side and let the data pick the other. A merged or
// explicit window with Min > Max is rejected.
type InsertWindow struct {
	Min, Max int
}

// PairMapping is one resolved concordant paired-end mapping. Mate2 describes
// where the reverse complement of R2 maps on the forward strand, so both
// mates share one coordinate system; Insert is the outer fragment length.
type PairMapping struct {
	PairID       int
	Mate1, Mate2 Mapping
	Insert       int
}

// checkInsertWindow validates an explicit or partial window; the zero value
// passes (it selects estimation at resolution time), as does a window with
// one bound zero (that bound is estimated). An explicit Min > Max is
// rejected here, before any mapping work runs.
func checkInsertWindow(win InsertWindow, readLen int) error {
	if win.Min < 0 || win.Max < 0 {
		return fmt.Errorf("mapper: insert window [%d,%d] invalid", win.Min, win.Max)
	}
	if win.Min > 0 && win.Max > 0 && win.Max < win.Min {
		return fmt.Errorf("mapper: insert window [%d,%d] inverted (min > max)", win.Min, win.Max)
	}
	if win.Min > 0 && win.Min < readLen {
		return fmt.Errorf("mapper: insert window minimum %d below read length %d",
			win.Min, readLen)
	}
	return nil
}

// MapPairs maps read pairs and resolves concordant pairs: both mates
// mapped to the same contig in compatible orientation with the fragment
// length inside the insert window. Each pair contributes at most one
// PairMapping — the combination with the smallest summed edit distance
// (leftmost, then shortest insert, on ties). R1 is mapped as-is and R2 as
// its reverse complement, the FR orientation; under Config.BothStrands a
// fragment from the opposite strand is also found, as the combination where
// both mates' mappings carry Reverse=true. A zero-value win estimates the
// window from a sample of confidently mapped pairs (EstimateInsertWindow).
//
// The mates run through the mapping core as interleaved reads (read 2i is
// R1 of pair i, read 2i+1 the reverse complement of its R2), batched as
// MapReads batches reads. The returned Stats are those of the 2n mate
// reads, with the paired-end accounting (ReadPairs, ConcordantPairs, the
// window used and any estimate behind it) filled in. MapPairStream is the
// channel-fed form.
func (m *Mapper) MapPairs(pairs []ReadPair, e int, win InsertWindow) ([]PairMapping, Stats, error) {
	if err := checkInsertWindow(win, m.cfg.ReadLen); err != nil {
		return nil, Stats{}, err
	}
	if err := m.checkThreshold(e); err != nil {
		return nil, Stats{}, err
	}
	for i, p := range pairs {
		if len(p.R1) != m.cfg.ReadLen || len(p.R2) != m.cfg.ReadLen {
			return nil, Stats{}, fmt.Errorf("mapper: pair %d has mate lengths %d/%d, mapper built for %d",
				i, len(p.R1), len(p.R2), m.cfg.ReadLen)
		}
	}
	s := m.newScratch(e)
	for i, p := range pairs {
		if err := s.addPair(i, p.R1, p.R2); err != nil {
			return nil, Stats{}, err
		}
	}
	mappings, st, err := s.finish()
	if err != nil {
		return nil, st, err
	}
	st.ReadPairs = int64(len(pairs))
	resolved, err := m.resolveConcordant(mappings, win, &st)
	if err != nil {
		return nil, st, err
	}
	return resolved, st, nil
}

// resolveConcordant groups interleaved-mate mappings (readID 2i = mate1,
// 2i+1 = reverse-complemented mate2) into concordant pairs under win,
// estimating any zero bound of the window first (both bounds for the zero
// value, just the missing one for a partial window), and records the window
// and pairing counters into st.
func (m *Mapper) resolveConcordant(mappings []Mapping, win InsertWindow, st *Stats) ([]PairMapping, error) {
	if win.Min == 0 || win.Max == 0 {
		est, ok := estimateInsert(mappings, m.cfg.ReadLen, 0)
		if !ok {
			return nil, fmt.Errorf("mapper: cannot estimate insert window: only %d confidently mapped pairs (need %d); pass an explicit window",
				est.SampledPairs, minInsertSample)
		}
		full := est.window(m.cfg.ReadLen)
		if win.Min == 0 {
			win.Min = full.Min
		}
		if win.Max == 0 {
			win.Max = full.Max
		}
		if win.Max < win.Min {
			return nil, fmt.Errorf("mapper: insert window [%d,%d] inverted after estimating the missing bound (estimated %v from mean %.0f ± %.0f); pass both bounds explicitly",
				win.Min, win.Max, full, est.Mean, est.Std)
		}
		st.InsertMean, st.InsertStd = est.Mean, est.Std
		st.InsertSampledPairs = int64(est.SampledPairs)
	}
	st.InsertWindowMin, st.InsertWindowMax = win.Min, win.Max

	L := m.cfg.ReadLen
	var resolved []PairMapping
	// mappings are sorted by ReadID, so each pair's two mates are adjacent
	// runs: readID 2i then 2i+1.
	for lo := 0; lo < len(mappings); {
		pairID := mappings[lo].ReadID / 2
		hi := lo
		var m1, m2 []Mapping
		for ; hi < len(mappings) && mappings[hi].ReadID/2 == pairID; hi++ {
			if mappings[hi].ReadID%2 == 0 {
				m1 = append(m1, mappings[hi])
			} else {
				m2 = append(m2, mappings[hi])
			}
		}
		if pm, ok := resolvePair(pairID, m1, m2, L, win); ok {
			resolved = append(resolved, pm)
		}
		lo = hi
	}
	st.ConcordantPairs = int64(len(resolved))
	sort.Slice(resolved, func(i, j int) bool { return resolved[i].PairID < resolved[j].PairID })
	return resolved, nil
}

// resolvePair picks the best concordant combination of one pair's mate
// mappings, if any: same contig, FR orientation, insert inside the window,
// minimal summed distance (then leftmost start on the earliest contig, then
// shortest insert).
func resolvePair(pairID int, m1, m2 []Mapping, L int, win InsertWindow) (PairMapping, bool) {
	best := PairMapping{PairID: pairID}
	found := false
	better := func(a PairMapping, b PairMapping) bool {
		da, db := a.Mate1.Distance+a.Mate2.Distance, b.Mate1.Distance+b.Mate2.Distance
		if da != db {
			return da < db
		}
		if a.Mate1.Contig != b.Mate1.Contig {
			return a.Mate1.Contig < b.Mate1.Contig
		}
		la, lb := min(a.Mate1.Pos, a.Mate2.Pos), min(b.Mate1.Pos, b.Mate2.Pos)
		if la != lb {
			return la < lb
		}
		return a.Insert < b.Insert
	}
	for _, a := range m1 {
		for _, b := range m2 {
			// A fragment is one piece of one chromosome: mates mapping to
			// different contigs are discordant no matter how close their
			// contig-relative coordinates look.
			if a.Contig != b.Contig {
				continue
			}
			// FR concordance is orientation AND order. On a forward-strand
			// fragment (both queries mapping forward) R1 reads the left end,
			// so its window must be leftmost; on a reverse-strand fragment
			// (both queries mapping reversed, under BothStrands) the layout
			// mirrors and R2's window is leftmost. Mixed orientations and
			// everted arrangements are discordant.
			if a.Reverse != b.Reverse {
				continue
			}
			if !a.Reverse && b.Pos < a.Pos {
				continue
			}
			if a.Reverse && a.Pos < b.Pos {
				continue
			}
			lo, hi := a.Pos, b.Pos
			if hi < lo {
				lo, hi = hi, lo
			}
			insert := hi + L - lo
			if insert < win.Min || insert > win.Max {
				continue
			}
			cand := PairMapping{PairID: pairID, Mate1: a, Mate2: b, Insert: insert}
			if !found || better(cand, best) {
				best = cand
				found = true
			}
		}
	}
	return best, found
}

// minInsertSample is the fewest confidently mapped pairs an insert-window
// estimate may rest on; defaultInsertSample caps how many it measures.
const (
	minInsertSample     = 8
	defaultInsertSample = 10_000
)

// InsertEstimate reports the sample statistics behind an estimated insert
// window.
type InsertEstimate struct {
	SampledPairs int // confident pairs the estimate drew on (after outlier trimming)
	Mean, Std    float64
}

// window derives the concordance window from the fitted sample: mean ±
// (4·std + readLen/4) — four sigma covers essentially the whole fragment
// distribution and the readLen/4 pad keeps the window from under-covering
// on small or low-variance samples. Min is clamped to readLen.
func (e InsertEstimate) window(readLen int) InsertWindow {
	half := 4*e.Std + float64(readLen)/4
	lo := int(math.Floor(e.Mean - half))
	hi := int(math.Ceil(e.Mean + half))
	if lo < readLen {
		lo = readLen
	}
	if hi < lo {
		hi = lo
	}
	return InsertWindow{Min: lo, Max: hi}
}

// EstimateInsertWindow infers the concordance window real mappers guess
// from the data itself, removing the need for an explicit -insert-min/-max:
// it walks single-end mappings of interleaved mates (readID 2i = mate1,
// 2i+1 = reverse-complemented mate2, MapPairs' layout), measures the
// fragment length of every confidently mapped pair — both mates mapped
// uniquely, on the same contig, same strand, proper FR order — and fits
// mean and standard deviation to the sample. Split pairs (mates uniquely
// mapping to different contigs) are excluded: their contig-relative
// coordinate difference is not a fragment length. Wild fragments (a unique
// mis-mapping placing the mates arbitrarily far apart) are discarded beyond
// ~6 robust standard deviations of the median before fitting, MAD-style, so
// a handful of outliers cannot blow the window open.
//
// The window is mean ± (4·std + readLen/4) with Min clamped to readLen (see
// InsertEstimate.window). maxSample caps the pairs measured (<=0 uses
// 10,000); ok is false when fewer than minInsertSample confident pairs
// exist.
func EstimateInsertWindow(mappings []Mapping, readLen, maxSample int) (InsertWindow, InsertEstimate, bool) {
	est, ok := estimateInsert(mappings, readLen, maxSample)
	if !ok {
		return InsertWindow{}, est, false
	}
	return est.window(readLen), est, true
}

// estimateInsert is EstimateInsertWindow without the window derivation.
func estimateInsert(mappings []Mapping, readLen, maxSample int) (InsertEstimate, bool) {
	if maxSample <= 0 {
		maxSample = defaultInsertSample
	}
	var inserts []float64
	for lo := 0; lo < len(mappings) && len(inserts) < maxSample; {
		pairID := mappings[lo].ReadID / 2
		hi := lo
		var a, b Mapping
		var n1, n2 int
		for ; hi < len(mappings) && mappings[hi].ReadID/2 == pairID; hi++ {
			if mappings[hi].ReadID%2 == 0 {
				a, n1 = mappings[hi], n1+1
			} else {
				b, n2 = mappings[hi], n2+1
			}
		}
		lo = hi
		if n1 != 1 || n2 != 1 || a.Contig != b.Contig || a.Reverse != b.Reverse {
			continue
		}
		if !a.Reverse && b.Pos < a.Pos {
			continue
		}
		if a.Reverse && a.Pos < b.Pos {
			continue
		}
		pl, ph := a.Pos, b.Pos
		if ph < pl {
			pl, ph = ph, pl
		}
		inserts = append(inserts, float64(ph+readLen-pl))
	}
	if len(inserts) < minInsertSample {
		return InsertEstimate{SampledPairs: len(inserts)}, false
	}

	// Robust outlier trim: keep inserts within 6 MAD-sigmas of the median
	// (floored at readLen so a tight library does not trim itself away).
	sort.Float64s(inserts)
	med := quantile(inserts, 0.5)
	devs := make([]float64, len(inserts))
	for i, x := range inserts {
		devs[i] = math.Abs(x - med)
	}
	sort.Float64s(devs)
	cutoff := 6 * 1.4826 * quantile(devs, 0.5)
	if cutoff < float64(readLen) {
		cutoff = float64(readLen)
	}
	var kept []float64
	for _, x := range inserts {
		if math.Abs(x-med) <= cutoff {
			kept = append(kept, x)
		}
	}
	if len(kept) < minInsertSample {
		return InsertEstimate{SampledPairs: len(kept)}, false
	}

	var sum float64
	for _, x := range kept {
		sum += x
	}
	mean := sum / float64(len(kept))
	var ss float64
	for _, x := range kept {
		ss += (x - mean) * (x - mean)
	}
	std := math.Sqrt(ss / float64(len(kept)))
	return InsertEstimate{SampledPairs: len(kept), Mean: mean, Std: std}, true
}

// quantile returns the q-quantile of sorted xs by nearest-rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q * float64(len(xs)-1))
	return xs[i]
}
