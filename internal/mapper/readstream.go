package mapper

import (
	"fmt"

	"repro/internal/gkgpu"
)

// Read is one named read arriving on a channel — the ingestion unit of
// MapReadStream. Name is used for error messages only; callers that need
// names later (SAM QNAMEs) keep their own record.
type Read struct {
	Name string
	Seq  []byte
}

// PairRead is one named FR mate pair arriving on a channel — the ingestion
// unit of MapPairStream. R1 and R2 are as sequenced (R2 reverse-complement
// oriented), exactly like ReadPair.
type PairRead struct {
	Name   string
	R1, R2 []byte
}

// MapReadStream is the channel-fed MapReads: reads are received from in
// (a FASTQ decoder, a network source) until a batch of
// Config.MaxReadsPerBatch is full or in closes, each batch runs the same
// mapping core as MapReads, and receiving resumes. The read set is never
// materialized — the mapper retains no reference to a sequence once its
// batch is mapped — so peak memory is bounded by the batch size, not the
// input size.
//
// ReadIDs are assigned in arrival order, so the output is byte-identical
// to MapReads over the same records collected into a slice. The producer
// must close in; on a terminal error (wrong-length record, filter failure)
// the remaining input is drained and discarded so the producer never
// blocks. A filter failure is wrapped in gkgpu.ErrStreamAborted, as a
// failed engine stream is.
func (m *Mapper) MapReadStream(in <-chan Read, e int) (_ []Mapping, _ Stats, err error) {
	defer drainOnError(in, &err)
	if err := m.checkThreshold(e); err != nil {
		return nil, Stats{}, err
	}
	s := m.newScratch(e)
	id := 0
	for r := range in {
		if len(r.Seq) != m.cfg.ReadLen {
			return nil, Stats{}, fmt.Errorf("mapper: streamed read %d (%q) has length %d, mapper built for %d",
				id, r.Name, len(r.Seq), m.cfg.ReadLen)
		}
		if err := s.add(id, r.Seq); err != nil {
			return nil, Stats{}, streamAborted(err)
		}
		id++
	}
	mappings, st, err := s.finish()
	if err != nil {
		return nil, Stats{}, streamAborted(err)
	}
	return mappings, st, nil
}

// MapPairStream is the channel-fed MapPairs: mate pairs are received from
// in and batched as MapReadStream batches reads (each pair as its two mate
// reads, R1 forward and R2 reverse-complemented), and concordant pairs are
// resolved once in closes. A zero-value win estimates the insert window
// from the mapped sample (EstimateInsertWindow), as MapPairs does.
//
// The producer must close in; on a terminal error the remaining input is
// drained and discarded so the producer never blocks, and a filter failure
// is wrapped in gkgpu.ErrStreamAborted. Output is identical to MapPairs
// over the same pairs collected into a slice.
func (m *Mapper) MapPairStream(in <-chan PairRead, e int, win InsertWindow) (_ []PairMapping, _ Stats, err error) {
	defer drainOnError(in, &err)
	if err := checkInsertWindow(win, m.cfg.ReadLen); err != nil {
		return nil, Stats{}, err
	}
	if err := m.checkThreshold(e); err != nil {
		return nil, Stats{}, err
	}
	s := m.newScratch(e)
	id := 0
	for p := range in {
		if len(p.R1) != m.cfg.ReadLen || len(p.R2) != m.cfg.ReadLen {
			return nil, Stats{}, fmt.Errorf("mapper: streamed pair %d (%q) has mate lengths %d/%d, mapper built for %d",
				id, p.Name, len(p.R1), len(p.R2), m.cfg.ReadLen)
		}
		if err := s.addPair(id, p.R1, p.R2); err != nil {
			return nil, Stats{}, streamAborted(err)
		}
		id++
	}
	mappings, st, err := s.finish()
	if err != nil {
		return nil, Stats{}, streamAborted(err)
	}
	st.ReadPairs = int64(id)
	resolved, err := m.resolveConcordant(mappings, win, &st)
	if err != nil {
		return nil, st, err
	}
	return resolved, st, nil
}

// streamAborted marks a channel-fed call's filter failure as a terminal
// stream abort, keeping the classified fault behind it.
func streamAborted(err error) error {
	return fmt.Errorf("%w: %w", gkgpu.ErrStreamAborted, err)
}

// drainOnError keeps the never-block promise of the channel-fed entry
// points: once the call has failed (*err set), the rest of ch is discarded
// in the background so its producer can finish sending and close it.
func drainOnError[T any](ch <-chan T, err *error) {
	if *err != nil {
		go func() {
			for range ch {
			}
		}()
	}
}
