package mapper

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/gkgpu"
)

// PreFilter is the pre-alignment filtering hook between seeding and
// verification. Both gkgpu.Engine (the GPU path) and gkgpu.CPUEngine satisfy
// it; a nil PreFilter reproduces the paper's "No Filter" rows.
type PreFilter interface {
	FilterPairs(pairs []gkgpu.Pair, errThreshold int) ([]gkgpu.Result, error)
}

// CandidateFilter extends PreFilter with the paper's actual mrFAST
// integration (Section 3.5): the encoded reference lives in unified memory
// and candidates are named by (read, location) indices, so each read is
// copied to the device once and the kernel extracts reference segments
// itself. gkgpu.Engine and gkgpu.CPUEngine implement it; the mapper uses
// this path whenever available.
type CandidateFilter interface {
	PreFilter
	SetReference(seq []byte) error
	FilterCandidates(reads [][]byte, cands []gkgpu.Candidate, errThreshold int) ([]gkgpu.Result, error)
}

// Config parametrizes a mapping run.
type Config struct {
	ReadLen int
	MaxE    int
	SeedLen int // defaults to DefaultSeedLen
	// SeedStep samples the index: only reference windows starting at
	// contig-relative offsets divisible by SeedStep are indexed
	// (accel-align's kmer_step), shrinking the index ~SeedStep× while
	// seeding probes SeedStep consecutive read offsets per pigeonhole seed
	// to compensate. Zero or 1 indexes every window (bit-identical to the
	// unstepped mapper). Must leave the probe span inside the read:
	// SeedStep <= ReadLen-SeedLen+1.
	SeedStep int
	// MaxReadsPerBatch is the batch size of every mapping entry point: how
	// many reads (each mate of a pair counts as one read) are seeded, have
	// their candidates filtered in one round, and are verified together
	// (Table 1's reads per batch). Under BothStrands a batch also carries
	// its reads' reverse complements. Zero uses DefaultMaxReadsPerBatch.
	MaxReadsPerBatch int
	Filter           PreFilter
	// Traceback makes verification produce CIGAR strings for SAM output at
	// the cost of a bit-vector traceback over each accepted pair.
	Traceback bool
	// BothStrands also maps the reverse complement of every read, as real
	// short read mappers do; reverse-strand mappings carry Reverse=true.
	BothStrands bool
	// StreamWorkers sizes each batch's parallel seeding and verification
	// fan-out, on every entry point. Zero uses GOMAXPROCS.
	StreamWorkers int
}

// DefaultMaxReadsPerBatch is the batch size when Config.MaxReadsPerBatch is
// zero. Per-batch memory grows with the batch, and larger batches measured
// no faster, because every stage of a batch already runs at machine width.
const DefaultMaxReadsPerBatch = 1024

func (c *Config) applyDefaults() {
	if c.SeedLen == 0 {
		c.SeedLen = DefaultSeedLen
	}
	if c.SeedStep == 0 {
		c.SeedStep = 1
	}
	if c.MaxReadsPerBatch == 0 {
		c.MaxReadsPerBatch = DefaultMaxReadsPerBatch
	}
}

// validate checks a defaulted configuration's read and seed geometry.
func (c *Config) validate() error {
	if c.ReadLen <= 0 {
		return fmt.Errorf("mapper: read length %d", c.ReadLen)
	}
	if c.MaxE < 0 || c.MaxE >= c.ReadLen {
		return fmt.Errorf("mapper: error threshold %d outside [0,%d)", c.MaxE, c.ReadLen)
	}
	if c.SeedLen > c.ReadLen {
		return fmt.Errorf("mapper: seed length %d exceeds read length %d", c.SeedLen, c.ReadLen)
	}
	if c.SeedStep < 1 || c.SeedStep > c.ReadLen-c.SeedLen+1 {
		return fmt.Errorf("mapper: seed step %d outside [1,%d] (probe span must fit the read)",
			c.SeedStep, c.ReadLen-c.SeedLen+1)
	}
	return nil
}

// Mapping is one reported alignment. Coordinates are contig-relative:
// Contig indexes the mapper's Reference contig table and Pos is the offset
// of the candidate window inside that contig (for a single-contig reference
// Contig is 0 and Pos equals the historical flat-reference offset).
type Mapping struct {
	ReadID   int
	Contig   int    // index into Reference.Contigs()
	Pos      int    // contig-relative offset of the candidate window
	Distance int    // verified edit distance
	CIGAR    string // populated when Config.Traceback is set
	Reverse  bool   // mapping of the read's reverse complement
}

// Stats carries the whole-genome evaluation metrics of Section 4.5: "the
// number of mappings, the number of mapped reads, the total number of
// candidate mappings, the total number of candidate mappings that enter
// verification, time spent for verification, time spent for preprocessing
// before pre-alignment filtering, and total kernel time". Every entry point
// fills them the same way: the stage clocks are wall time summed over the
// call's batches, and the model fields are the filter's modelled clocks
// for this call alone.
type Stats struct {
	Reads              int64
	CandidatePairs     int64 // candidate mappings found by seeding
	VerificationPairs  int64 // candidates that enter verification
	RejectedPairs      int64 // candidates removed by the filter
	UndefinedPairs     int64 // candidates passed through for 'N'
	Mappings           int64
	MappedReads        int64
	SeedSeconds        float64 // wall: seeding + candidate collection
	PreprocessSeconds  float64 // wall: filter buffer preparation
	FilterWallSeconds  float64 // wall: pre-alignment filtering
	FilterKernelModel  float64 // modelled device kernel seconds
	FilterModelSeconds float64 // modelled end-to-end filter seconds
	FilterPrepModel    float64 // modelled host encode/fill seconds
	VerifySeconds      float64 // wall: bit-parallel verification (align.Verifier)
	TotalSeconds       float64

	// Paired-end accounting, populated by MapPairs and MapPairStream only.
	ReadPairs       int64 // input mate pairs
	ConcordantPairs int64 // pairs resolved inside the insert window

	// Insert-window accounting, populated by MapPairs and MapPairStream
	// only. The window is the one concordance was resolved against; the
	// estimate fields stay zero when the caller passed an explicit window.
	InsertWindowMin    int
	InsertWindowMax    int
	InsertMean         float64 // estimated mean fragment length
	InsertStd          float64 // estimated fragment length std deviation
	InsertSampledPairs int64   // confident pairs behind the estimate
}

// Reduction returns the fraction of candidate mappings the filter removed —
// the headline quantity of Tables 3 and S.24-S.26.
func (s Stats) Reduction() float64 {
	if s.CandidatePairs == 0 {
		return 0
	}
	return float64(s.RejectedPairs) / float64(s.CandidatePairs)
}

// Mapper maps fixed-length reads against an indexed (multi-contig)
// reference.
type Mapper struct {
	cfg        Config
	ref        *Reference
	idx        *Index
	candFilter CandidateFilter // non-nil when cfg.Filter supports the index path
}

// New builds a mapper over one flat reference sequence, treated as a single
// contig. NewFromReference is the multi-contig form.
func New(ref []byte, cfg Config) (*Mapper, error) {
	return NewFromReference(SingleContig("", ref), cfg)
}

// NewFromReference builds a mapper over a multi-contig reference: seeding,
// filtering, and verification run over the concatenated sequence, candidate
// windows never straddle a contig boundary, and reported Mappings carry
// (contig, contig-relative position) coordinates.
func NewFromReference(ref *Reference, cfg Config) (*Mapper, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	idx, err := NewSteppedReferenceIndex(ref, cfg.SeedLen, cfg.SeedStep)
	if err != nil {
		return nil, err
	}
	return newMapperWithIndex(ref, cfg, idx)
}

// newMapperWithIndex is the tail of NewFromReference, shared with
// NewFromSerializedIndex: wrap an already-built (or loaded) index and wire
// the optional candidate filter. cfg must already be validated and idx must
// index ref with cfg's seed geometry.
func newMapperWithIndex(ref *Reference, cfg Config, idx *Index) (*Mapper, error) {
	m := &Mapper{cfg: cfg, ref: ref, idx: idx}
	if cf, ok := cfg.Filter.(CandidateFilter); ok {
		if err := cf.SetReference(ref.Seq()); err != nil {
			return nil, fmt.Errorf("mapper: loading reference into filter: %w", err)
		}
		m.candFilter = cf
	}
	return m, nil
}

// NewFromSerializedIndex builds a Mapper from a reference plus a GKIX index
// file previously written by Index.Serialize (cmd/gkindex), skipping the
// index build. The file must have been built from ref (ErrIndexMismatch
// otherwise, via the serialized fingerprint). The index's seed geometry is
// authoritative: when cfg.SeedLen or cfg.SeedStep is zero the mapper adopts
// the file's k or step, and a non-zero value that disagrees with the file is
// an ErrIndexMismatch — mapping silently with a different geometry than the
// index was built for is never right.
func NewFromSerializedIndex(ref *Reference, path string, cfg Config) (*Mapper, error) {
	idx, err := LoadIndexFile(path, ref)
	if err != nil {
		return nil, err
	}
	if err := checkIndexGeometry(cfg, idx); err != nil {
		return nil, err
	}
	cfg.SeedLen, cfg.SeedStep = idx.K(), idx.Step()
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return newMapperWithIndex(ref, cfg, idx)
}

// checkIndexGeometry verifies a non-zero configured seed geometry against a
// loaded index; a disagreement is an ErrIndexMismatch.
func checkIndexGeometry(cfg Config, idx *Index) error {
	if cfg.SeedLen != 0 && cfg.SeedLen != idx.K() {
		return fmt.Errorf("%w: config seed length %d, index built with k=%d",
			ErrIndexMismatch, cfg.SeedLen, idx.K())
	}
	if cfg.SeedStep != 0 && cfg.SeedStep != idx.Step() {
		return fmt.Errorf("%w: config seed step %d, index built with step=%d",
			ErrIndexMismatch, cfg.SeedStep, idx.Step())
	}
	return nil
}

// Index exposes the underlying k-mer index.
func (m *Mapper) Index() *Index { return m.idx }

// Reference exposes the mapper's contig table.
func (m *Mapper) Reference() *Reference { return m.ref }

// candidates runs pigeonhole seeding for one read, appending its candidate
// window starts to dst in ascending order without duplicates: e+1 seeds at
// evenly spread offsets; each hit proposes the window that would place the
// read at that seed offset. When the index is stepped, each pigeonhole seed
// fans out over the step consecutive read offsets starting at its own —
// the index holds one in every step contig-relative window starts, so
// whatever phase the true alignment has, exactly one probe in the fan
// lines up with a sampled reference window (found whenever the k+step-1
// bases around the seed are error-free, the stepped pigeonhole trade-off);
// at step 1 the fan is the single historical probe. Windows that would run
// past the start or end of the hit's contig — including into a
// neighbouring contig of the concatenated sequence — are dropped here,
// before filtering, so a cross-boundary candidate never reaches
// verification.
func (m *Mapper) candidates(dst []int64, read []byte, e int) []int64 {
	L := m.cfg.ReadLen
	k := m.idx.k
	step := m.idx.step
	nSeeds := e + 1
	if maxSeeds := L / k; nSeeds > maxSeeds {
		nSeeds = maxSeeds
	}
	if nSeeds < 1 {
		nSeeds = 1
	}
	start := len(dst)
	for s := 0; s < nSeeds; s++ {
		var off int
		if nSeeds == 1 {
			off = 0
		} else {
			off = s * (L - k) / (nSeeds - 1)
		}
		for o := off; o < off+step && o+k <= L; o++ {
			for _, hit := range m.idx.Lookup(read[o : o+k]) {
				pos := hit - int64(o)
				// The hit's k-window is inside one contig by construction;
				// the proposed read window must be too — WindowContig
				// rejects windows out of range or straddling a contig
				// boundary.
				if m.ref.WindowContig(int(pos), L) < 0 {
					continue
				}
				dst = append(dst, pos)
			}
		}
	}
	out := dst[start:]
	if len(out) == 0 {
		return dst
	}
	slices.Sort(out)
	n := 1
	for _, p := range out[1:] {
		if p != out[n-1] {
			out[n] = p
			n++
		}
	}
	return dst[:start+n]
}

// workerCount resolves the configured pool width against the machine and the
// work available.
func (m *Mapper) workerCount(n int) int {
	w := m.cfg.StreamWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelFor runs body over [0, n) across workers goroutines, each claiming
// grain-sized blocks off a shared cursor (the same dynamic schedule as the
// batch filter front end, and channel-free by design: the block index fully
// determines each worker's writes, so indexed slices are the only shared
// state). body must touch only its [lo, hi) slots; w, in [0, workers), names
// the calling worker so body can use per-worker scratch.
func parallelFor(workers, n, grain int, body func(w, lo, hi int)) {
	if n == 0 {
		return
	}
	if workers == 1 || n <= grain {
		body(0, 0, n)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				hi := int(cursor.Add(int64(grain)))
				lo := hi - grain
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				body(w, lo, hi)
			}
		}()
	}
	wg.Wait()
}

// checkThreshold rejects a mapping threshold above the configured MaxE.
func (m *Mapper) checkThreshold(e int) error {
	if e > m.cfg.MaxE {
		return fmt.Errorf("mapper: threshold %d exceeds configured %d", e, m.cfg.MaxE)
	}
	return nil
}

// MapReads maps every read at threshold e and returns the mappings in
// (read, contig, position, strand) order together with the run's
// statistics. The reads are cut into batches of Config.MaxReadsPerBatch,
// and each batch runs the mapping core: parallel seeding, one
// pre-alignment filtering round over all its candidates, and parallel
// verification of the survivors. The result is bit-identical for any batch
// size and pool width. MapReadStream is the channel-fed form.
func (m *Mapper) MapReads(reads [][]byte, e int) ([]Mapping, Stats, error) {
	if err := m.checkThreshold(e); err != nil {
		return nil, Stats{}, err
	}
	for i, r := range reads {
		if len(r) != m.cfg.ReadLen {
			return nil, Stats{}, fmt.Errorf("mapper: read %d has length %d, mapper built for %d",
				i, len(r), m.cfg.ReadLen)
		}
	}
	s := m.newScratch(e)
	for i, r := range reads {
		if err := s.add(i, r); err != nil {
			return nil, Stats{}, err
		}
	}
	return s.finish()
}

// sortMappings puts a mapping list into the mapper's canonical report order:
// (read, contig, position, strand). Contigs order as the reference lays them
// out, so the order equals the historical flat-position order; the strand
// tie-break keeps it fully deterministic — every entry point must emit
// byte-identical output for any batch size — even for the rare read whose
// forward and reverse-complement queries map at the same position.
func sortMappings(mappings []Mapping) {
	sort.Slice(mappings, func(i, j int) bool {
		if mappings[i].ReadID != mappings[j].ReadID {
			return mappings[i].ReadID < mappings[j].ReadID
		}
		if mappings[i].Contig != mappings[j].Contig {
			return mappings[i].Contig < mappings[j].Contig
		}
		if mappings[i].Pos != mappings[j].Pos {
			return mappings[i].Pos < mappings[j].Pos
		}
		return !mappings[i].Reverse && mappings[j].Reverse
	})
}
