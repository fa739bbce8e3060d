package gkgpu

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/cuda"
	"repro/internal/dna"
)

// Candidate names one filtration by indices instead of materialized
// sequences: read ReadID against the reference window starting at Pos. This
// is the paper's actual mrFAST integration — "Each thread executes a single
// comparison, starting with extracting the relevant reference segment based
// on the index" — and the reason unified memory fits the workload: the
// reference's designated segments are requested only on demand, and a read
// is copied to the device once for all of its candidate locations. IDs and
// positions are 64-bit so the candidate path addresses genome-scale
// (>2^31-base) references directly.
type Candidate struct {
	ReadID int64
	Pos    int64
}

// reference is the per-engine encoded reference state.
type reference struct {
	length int
	// nPositions are the sorted offsets of unknown base calls, recorded
	// during encoding (Section 3.5): windows overlapping them bypass
	// filtration as undefined.
	nPositions []int64
	// encoded reference words, one unified-memory copy per device.
	bufs []*cuda.UMBuffer
}

// SetReference encodes seq (multithreaded, as the paper does with OpenMP)
// and loads it into every device's unified memory, recording 'N' locations.
// It must be called before FilterCandidates and may be called again to
// replace the reference; it waits for any in-progress filtering call or
// active stream, so the old reference is never freed under a running kernel.
func (e *Engine) SetReference(seq []byte) error {
	if len(seq) < e.cfg.ReadLen {
		return fmt.Errorf("gkgpu: reference (%d) shorter than read length (%d)", len(seq), e.cfg.ReadLen)
	}
	// Replacing the reference must wait out running kernels; holding runMu
	// across the parallel encode's wg.Wait is that waiting, by design.
	//gk:allow lockcheck: runMu serializes reference replacement against running rounds and streams
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if len(e.states) == 0 {
		return fmt.Errorf("gkgpu: engine is closed")
	}
	e.clearReference()

	words := bitvec.EncodedWords(len(seq))
	encoded := make([]uint64, words)
	var nMu sync.Mutex
	var nPositions []int64

	// Parallel encode: each worker packs a disjoint word range. 'N' (or any
	// unknown byte) encodes as 0 and its position is recorded.
	workers := cuda.MaxWorkers(words)
	var wg sync.WaitGroup
	chunk := (words + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= words {
			break
		}
		hi := lo + chunk
		if hi > words {
			hi = words
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var local []int64
			for wi := lo; wi < hi; wi++ {
				var word uint64
				base := wi * dna.BasesPerWord
				for b := 0; b < dna.BasesPerWord && base+b < len(seq); b++ {
					code, ok := dna.Code(seq[base+b])
					if !ok {
						local = append(local, int64(base+b))
						continue
					}
					word |= uint64(code) << uint(2*b)
				}
				encoded[wi] = word
			}
			if len(local) > 0 {
				nMu.Lock()
				nPositions = append(nPositions, local...)
				nMu.Unlock()
			}
		}(lo, hi)
	}
	wg.Wait()
	sort.Slice(nPositions, func(i, j int) bool { return nPositions[i] < nPositions[j] })

	ref := &reference{length: len(seq), nPositions: nPositions}
	for _, st := range e.states {
		buf, err := st.dev.AllocUnified(words * 8)
		if err != nil {
			ref.free()
			return fmt.Errorf("gkgpu: reference buffer: %w", allocFault(st.dev, err))
		}
		raw := buf.Bytes()
		for i, v := range encoded {
			binary.LittleEndian.PutUint64(raw[i*8:], v)
		}
		buf.HostWrite(0, len(raw))
		buf.Advise(cuda.AdviseReadMostly)
		buf.PrefetchAsync(st.sets[0].streams[1])
		ref.bufs = append(ref.bufs, buf)
	}
	e.ref = ref
	return nil
}

// clearReference releases the current reference buffers, if any.
func (e *Engine) clearReference() {
	if e.ref != nil {
		e.ref.free()
		e.ref = nil
	}
}

func (r *reference) free() {
	for _, b := range r.bufs {
		b.Free()
	}
	r.bufs = nil
}

// windowHasN reports whether [start, start+n) overlaps a recorded 'N'.
func (r *reference) windowHasN(start int64, n int) bool {
	i := sort.Search(len(r.nPositions), func(i int) bool { return r.nPositions[i] >= start })
	return i < len(r.nPositions) && r.nPositions[i] < start+int64(n)
}

// FilterCandidates filters index-named candidates against the loaded
// reference. Each distinct read is encoded and copied to the device once,
// however many candidate locations it has; the kernel extracts each
// reference segment from the encoded reference by index. Results are
// returned in candidate order. Device faults are handled as FilterPairs
// handles them: retried, re-split over surviving devices, and fatal only
// when no device survives.
func (e *Engine) FilterCandidates(reads [][]byte, cands []Candidate, errThreshold int) ([]Result, error) {
	if e.ref == nil {
		return nil, fmt.Errorf("gkgpu: FilterCandidates before SetReference")
	}
	if errThreshold < 0 || errThreshold > e.cfg.MaxE {
		return nil, fmt.Errorf("gkgpu: threshold %d outside compiled [0,%d]", errThreshold, e.cfg.MaxE)
	}
	L := e.cfg.ReadLen
	for i, r := range reads {
		if len(r) != L {
			return nil, fmt.Errorf("gkgpu: read %d has length %d; engine compiled for %d", i, len(r), L)
		}
	}
	for i, c := range cands {
		if c.ReadID < 0 || int(c.ReadID) >= len(reads) {
			return nil, fmt.Errorf("gkgpu: candidate %d references read %d of %d", i, c.ReadID, len(reads))
		}
		if c.Pos < 0 || int(c.Pos)+L > e.ref.length {
			return nil, fmt.Errorf("gkgpu: candidate %d window [%d,%d) outside reference of %d",
				i, c.Pos, int(c.Pos)+L, e.ref.length)
		}
	}

	// Encode every read once ("it is sufficient to copy a single read only
	// once to GPU memory for its multiple candidate reference segments").
	encWords := bitvec.EncodedWords(L)
	readWords := make([]uint64, len(reads)*encWords)
	readHasN := make([]bool, len(reads))
	for i, r := range reads {
		if dna.TryEncodeInto(readWords[i*encWords:(i+1)*encWords], r) >= 0 {
			readHasN[i] = true
		}
	}

	// Timing model: the index path ships encoded reads only (the reference
	// is already device-resident), i.e. the host-encoded transfer profile.
	w := cuda.Workload{ReadLen: L, E: errThreshold, DeviceEncoded: false}
	results := make([]Result, len(cands))
	err := e.filterRounds(results, w, func(st *deviceState, di, lo, hi int) error {
		return e.runCandidateBatch(st, di, cands[lo:hi], readWords, readHasN, errThreshold, results[lo:hi])
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// runCandidateBatch executes one device's share of an index-named round.
func (e *Engine) runCandidateBatch(st *deviceState, devIdx int, chunk []Candidate,
	readWords []uint64, readHasN []bool, errThreshold int, out []Result) error {

	n := len(chunk)
	if n == 0 {
		return nil
	}
	L := e.cfg.ReadLen
	encWords := bitvec.EncodedWords(L)
	refBuf := e.ref.bufs[devIdx]
	refRaw := refBuf.Bytes()
	refBuf.DeviceTouch(0, refBuf.Len()) // on-demand migration on Kepler

	lc := st.sys.Launch
	if need := (n + lc.ThreadsPerBlock - 1) / lc.ThreadsPerBlock; need < lc.Blocks {
		lc.Blocks = need
	}
	return st.dev.Launch(lc, n, func(worker, tid int) {
		c := chunk[tid]
		if readHasN[c.ReadID] || e.ref.windowHasN(c.Pos, L) {
			out[tid] = Result{Accept: true, Undefined: true}
			return
		}
		rw := readWords[int(c.ReadID)*encWords : (int(c.ReadID)+1)*encWords]
		// Extract the candidate segment from the unified-memory reference:
		// read the word span covering [Pos, Pos+L) and shift into place.
		fw := st.refWords[worker]
		extractFromRaw(fw, refRaw, int(c.Pos), L)
		est, accept := st.kernels[worker].FilterEncoded(rw, fw, errThreshold)
		out[tid] = Result{Accept: accept, Estimate: uint16(est)}
	})
}

// extractFromRaw is bitvec.ExtractChars reading directly from the little-
// endian byte image of the encoded reference in unified memory.
func extractFromRaw(dst []uint64, raw []byte, start, n int) {
	wordOff := start / dna.BasesPerWord
	bitOff := uint(start%dna.BasesPerWord) * 2
	outWords := bitvec.EncodedWords(n)
	totalWords := len(raw) / 8
	for i := 0; i < outWords; i++ {
		var w uint64
		if j := wordOff + i; j < totalWords {
			w = binary.LittleEndian.Uint64(raw[j*8:]) >> bitOff
			if bitOff != 0 && j+1 < totalWords {
				w |= binary.LittleEndian.Uint64(raw[(j+1)*8:]) << (64 - bitOff)
			}
		}
		dst[i] = w
	}
	if rem := n % dna.BasesPerWord; rem != 0 {
		dst[outWords-1] &= (uint64(1) << uint(2*rem)) - 1
	}
}
