package mapper

import (
	"fmt"
	"math"
	"time"

	"repro/internal/align"
	"repro/internal/dna"
	"repro/internal/gkgpu"
)

// query is one oriented sequence of a batch: a read (or mate) as fed, or
// its reverse complement under Config.BothStrands.
type query struct {
	readID  int
	reverse bool
}

// seedSpan locates one query's candidate list inside a seeding worker's
// arena.
type seedSpan struct {
	worker, lo, hi int
}

// scratch is one mapping call's state: the batch being filled, every buffer
// the core fills for it — reused from batch to batch, so a long run
// allocates only when a batch outgrows its predecessors — and the call's
// running statistics and mappings. Every entry point feeds reads through
// add (or addPair) and ends with finish.
type scratch struct {
	m     *Mapper
	e     int
	reads int // reads in the current batch

	queries []query
	seqs    [][]byte // query sequences, parallel to queries
	rc      []byte   // the batch's reverse complements, one after another

	arenas    [][]int64 // per-worker seeding output
	spans     []seedSpan
	cands     []gkgpu.Candidate // ReadID indexes queries
	pairs     []gkgpu.Pair      // materialized windows, plain PreFilter only
	accept    []gkgpu.Result    // verdicts when no filter is configured
	slots     []Mapping
	kept      []bool
	verifiers []align.Verifier

	st       Stats
	mappings []Mapping
	start    time.Time
	engine   interface{ Stats() gkgpu.Stats } // the filter's model clocks, if it has any
	before   gkgpu.Stats
}

// newScratch starts a mapping call at threshold e.
func (m *Mapper) newScratch(e int) *scratch {
	workers := m.workerCount(math.MaxInt)
	s := &scratch{
		m:         m,
		e:         e,
		arenas:    make([][]int64, workers),
		verifiers: make([]align.Verifier, workers),
		start:     time.Now(),
	}
	if eng, ok := m.cfg.Filter.(interface{ Stats() gkgpu.Stats }); ok {
		s.engine, s.before = eng, eng.Stats()
	}
	return s
}

// add queues read readID, mapping the current batch first if it is full.
func (s *scratch) add(readID int, seq []byte) error {
	if err := s.reserve(); err != nil {
		return err
	}
	s.push(readID, seq)
	return nil
}

// addPair queues FR mate pair pairID as reads 2·pairID (R1 as sequenced)
// and 2·pairID+1 (R2 reverse-complemented onto R1's strand).
func (s *scratch) addPair(pairID int, r1, r2 []byte) error {
	if err := s.add(2*pairID, r1); err != nil {
		return err
	}
	if err := s.reserve(); err != nil {
		return err
	}
	s.push(2*pairID+1, s.revComp(r2))
	return nil
}

// reserve makes room for one more read, mapping the batch if it is full.
func (s *scratch) reserve() error {
	if s.reads == s.m.cfg.MaxReadsPerBatch {
		if err := s.mapBatch(); err != nil {
			return err
		}
	}
	s.reads++
	s.st.Reads++
	return nil
}

// push appends a read's queries: the sequence itself and, under
// BothStrands, its reverse complement.
func (s *scratch) push(readID int, seq []byte) {
	s.queries = append(s.queries, query{readID: readID})
	s.seqs = append(s.seqs, seq)
	if s.m.cfg.BothStrands {
		s.queries = append(s.queries, query{readID: readID, reverse: true})
		s.seqs = append(s.seqs, s.revComp(seq))
	}
}

// revComp writes seq's reverse complement into the batch's arena. The
// result stays valid until the batch is mapped: a growing append leaves
// earlier slices on the old array, and the arena is rewound only between
// batches.
func (s *scratch) revComp(seq []byte) []byte {
	n := len(s.rc)
	for i := len(seq) - 1; i >= 0; i-- {
		s.rc = append(s.rc, dna.Complement(seq[i]))
	}
	return s.rc[n:]
}

// mapBatch is the mapping core, the paper's Section 3.5 batch design: seed
// every query of the batch in parallel, filter all their candidates in one
// FilterCandidates (or FilterPairs) call, verify the survivors in parallel
// into per-candidate slots, and tally in candidate order, so the result is
// identical for any pool width. It then rewinds the batch.
func (s *scratch) mapBatch() error {
	m, e, st := s.m, s.e, &s.st
	L := m.cfg.ReadLen
	ref := m.idx.seq
	nq := len(s.seqs)

	// Seeding: each worker appends its queries' candidates to its own
	// arena; the flatten walks queries in order, so the candidate list is
	// the serial walk's.
	seedStart := time.Now()
	for w := range s.arenas {
		s.arenas[w] = s.arenas[w][:0]
	}
	s.spans = resize(s.spans, nq)
	parallelFor(m.workerCount(nq), nq, 8, func(w, lo, hi int) {
		for qi := lo; qi < hi; qi++ {
			start := len(s.arenas[w])
			s.arenas[w] = m.candidates(s.arenas[w], s.seqs[qi], e)
			s.spans[qi] = seedSpan{worker: w, lo: start, hi: len(s.arenas[w])}
		}
	})
	s.cands = s.cands[:0]
	for qi, sp := range s.spans {
		for _, pos := range s.arenas[sp.worker][sp.lo:sp.hi] {
			s.cands = append(s.cands, gkgpu.Candidate{ReadID: int64(qi), Pos: pos})
		}
	}
	st.SeedSeconds += time.Since(seedStart).Seconds()
	st.CandidatePairs += int64(len(s.cands))
	n := len(s.cands)

	// Pre-alignment filtering, index-named when the filter supports it.
	var verdicts []gkgpu.Result
	var err error
	switch {
	case m.candFilter != nil:
		filtStart := time.Now()
		verdicts, err = m.candFilter.FilterCandidates(s.seqs, s.cands, e)
		st.FilterWallSeconds += time.Since(filtStart).Seconds()
	case m.cfg.Filter != nil:
		prepStart := time.Now()
		s.pairs = resize(s.pairs, n)
		for i, c := range s.cands {
			s.pairs[i] = gkgpu.Pair{Read: s.seqs[c.ReadID], Ref: ref[c.Pos : int(c.Pos)+L]}
		}
		st.PreprocessSeconds += time.Since(prepStart).Seconds()
		filtStart := time.Now()
		verdicts, err = m.cfg.Filter.FilterPairs(s.pairs, e)
		st.FilterWallSeconds += time.Since(filtStart).Seconds()
		clear(s.pairs) // drop the batch's read references
	default:
		s.accept = resize(s.accept, n)
		for i := range s.accept {
			s.accept[i] = gkgpu.Result{Accept: true}
		}
		verdicts = s.accept
	}
	if err == nil && len(verdicts) != n {
		err = fmt.Errorf("returned %d verdicts for %d candidates", len(verdicts), n)
	}
	if err != nil {
		return fmt.Errorf("mapper: pre-alignment filter: %w", err)
	}

	// Verification: the bit-parallel verifier over the survivors, one per
	// pool worker, straight from the query and the reference window.
	verifyStart := time.Now()
	s.slots = resize(s.slots, n)
	s.kept = resize(s.kept, n)
	parallelFor(m.workerCount(n), n, 32, func(w, lo, hi int) {
		v := &s.verifiers[w]
		for i := lo; i < hi; i++ {
			s.kept[i] = false
			if !verdicts[i].Accept {
				continue
			}
			c := s.cands[i]
			d, ok := v.Verify(s.seqs[c.ReadID], ref[c.Pos:int(c.Pos)+L], e)
			if !ok {
				continue
			}
			q := s.queries[c.ReadID]
			ci, rel := m.ref.Locate(int(c.Pos))
			s.slots[i] = Mapping{ReadID: q.readID, Contig: ci, Pos: rel, Distance: d, Reverse: q.reverse}
			if m.cfg.Traceback {
				s.slots[i].CIGAR = string(v.CIGARCompat())
			}
			s.kept[i] = true
		}
	})
	for i := range s.cands {
		if !verdicts[i].Accept {
			st.RejectedPairs++
			continue
		}
		if verdicts[i].Undefined {
			st.UndefinedPairs++
		}
		st.VerificationPairs++
		if s.kept[i] {
			s.mappings = append(s.mappings, s.slots[i])
		}
	}
	st.VerifySeconds += time.Since(verifyStart).Seconds()

	// Rewind the batch, dropping its read references so the channel-fed
	// entry points retain nothing of a mapped batch.
	clear(s.seqs)
	s.queries, s.seqs, s.rc, s.reads = s.queries[:0], s.seqs[:0], s.rc[:0], 0
	return nil
}

// finish maps the last partial batch and returns the call's mappings in
// canonical order with its statistics.
func (s *scratch) finish() ([]Mapping, Stats, error) {
	if s.reads > 0 {
		if err := s.mapBatch(); err != nil {
			return nil, Stats{}, err
		}
	}
	st := s.st
	sortMappings(s.mappings)
	st.Mappings = int64(len(s.mappings))
	for i, mp := range s.mappings {
		if i == 0 || mp.ReadID != s.mappings[i-1].ReadID {
			st.MappedReads++
		}
	}
	if s.engine != nil {
		after := s.engine.Stats()
		st.FilterKernelModel = after.KernelSeconds - s.before.KernelSeconds
		st.FilterModelSeconds = after.FilterSeconds - s.before.FilterSeconds
		st.FilterPrepModel = after.HostPrepSeconds - s.before.HostPrepSeconds
	}
	st.TotalSeconds = time.Since(s.start).Seconds()
	return s.mappings, st, nil
}

// resize returns buf with length n, reusing its array when it is large
// enough.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
