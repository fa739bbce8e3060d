// Command gkmap runs the mrFAST-style mapper end to end, optionally with
// GateKeeper-GPU pre-alignment filtering, and reports the whole-genome
// evaluation counters (Table 3's columns).
//
// Inputs are FASTA (reference) and FASTQ (reads); with -sim the tool
// synthesizes both instead, which is how the paper-scale experiments run
// without redistributable data. The reference FASTA may be multi-contig (a
// whole genome of chromosomes): every record is loaded into one
// mapper.Reference, reads map against all contigs with contig-relative
// coordinates (candidates never straddle a contig boundary), the report
// breaks mappings down per contig, and SAM output carries one @SQ line per
// contig with each record's RNAME naming its contig. Described FASTA
// headers (">chr1 Homo sapiens") contribute only their first word as the
// contig name, keeping @SQ SN: and RNAME SAM-legal. File mode decodes FASTQ
// incrementally (dna.FASTQScanner) and validates a uniform read length, R2
// included.
//
// Every mode maps through the same batch core: reads are seeded, filtered
// and verified -batch reads at a time. With -stream, reads reach it over a
// channel (Mapper.MapReadStream / MapPairStream) as they are decoded — the
// read set is never materialized unless -sam needs the sequences back for
// output. With -paired, mate pairs (synthesized FR pairs under -sim, or
// -reads-file plus -reads2) map together and concordant pairs are resolved
// against the insert window; when no -insert-min/-max is given the window is
// estimated from a sample of confidently mapped pairs; giving just one of
// -insert-min/-insert-max pins that bound and estimates the other. -sam
// writes single-end records, or standard paired records (flags,
// RNEXT/PNEXT/TLEN) under -paired, with QNAMEs taken from the FASTQ input.
//
// Usage:
//
//	gkmap -sim -genome 500000 -reads 5000 -e 5 -prefilter gpu
//	gkmap -sim -stream -reads 5000 -e 5
//	gkmap -sim -paired -reads 2000 -insert-mean 400 -insert-std 40 -sam out.sam
//	gkmap -ref ref.fa -reads-file reads.fq -e 3 -prefilter none -sam out.sam
//	gkmap -ref genome.fa -reads-file r1.fq -reads2 r2.fq -paired -stream -sam out.sam
//	gkmap -ref genome.fa -index genome.gkix -reads-file reads.fq -sam out.sam
//
// where genome.fa may hold any number of contigs. -index loads a GKIX index
// serialized by gkindex instead of rebuilding it — on genome-scale
// references the build dominates startup, the load is a single sequential
// read — and adopts the file's recorded seed length and step, so no -k or
// -seedstep bookkeeping can drift between indexing and mapping.
//
// -fault-rate/-fault-seed/-fault-die inject deterministic faults into the
// simulated GPUs (gpu prefilter only): the engine retries, quarantines
// dying devices and re-splits their work over the survivors, so the output
// is bit-identical while any device survives; with none left the run exits
// non-zero with the classified fault taxonomy. -sam always writes through a
// temp file in the destination directory renamed into place on success, so
// no failure mode leaves a truncated .sam behind.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cuda"
	"repro/internal/dna"
	"repro/internal/gkgpu"
	"repro/internal/mapper"
	"repro/internal/metrics"
	"repro/internal/simdata"
)

func main() {
	var (
		sim       = flag.Bool("sim", false, "simulate the reference and reads")
		genomeLen = flag.Int("genome", 500_000, "simulated genome length")
		nReads    = flag.Int("reads", 5_000, "simulated read count")
		readLen   = flag.Int("readlen", 100, "read length (simulation)")
		refFile   = flag.String("ref", "", "reference FASTA (when not -sim)")
		readsFile = flag.String("reads-file", "", "reads FASTQ (when not -sim)")
		indexFile = flag.String("index", "", "GKIX index file from gkindex; skips the index build and adopts the file's seed geometry")
		seedStep  = flag.Int("seedstep", 0, "seed step for the in-memory index build (0 = every window; ignored with -index)")
		e         = flag.Int("e", 5, "edit distance threshold")
		preFilter = flag.String("prefilter", "gpu", "pre-alignment filter: gpu, cpu, or none")
		encoding  = flag.String("encoding", "device", "encoding actor for the GPU engine: device or host")
		nGPUs     = flag.Int("gpus", 1, "simulated GPU count")
		batch     = flag.Int("batch", mapper.DefaultMaxReadsPerBatch, "reads per mapping batch")
		samOut    = flag.String("sam", "", "write mappings as SAM to this file (paired records under -paired)")
		strands   = flag.Bool("both-strands", false, "also map reverse complements")
		seed      = flag.Int64("seed", 42, "simulation seed")
		stream    = flag.Bool("stream", false, "feed reads to the mapper over a channel as they are decoded")
		paired    = flag.Bool("paired", false, "paired-end mapping")
		reads2    = flag.String("reads2", "", "mate FASTQ for -paired (when not -sim)")
		workers   = flag.Int("workers", 0, "seeding and verification fan-out width (0 = GOMAXPROCS)")
		insMean   = flag.Int("insert-mean", 400, "simulated mean fragment length (-paired -sim only; never a window default)")
		insStd    = flag.Int("insert-std", 40, "simulated fragment length std dev (-paired -sim only; never a window default)")
		insMin    = flag.Int("insert-min", 0, "insert window minimum (0 = estimate this bound from the data)")
		insMax    = flag.Int("insert-max", 0, "insert window maximum (0 = estimate this bound from the data)")
		showMet   = flag.Bool("metrics", false, "print the internal hot-path counters (filtrations, seed lookups, contig locates)")
		faultRate = flag.Float64("fault-rate", 0, "inject launch/transfer faults on every simulated GPU at this per-op probability (chaos testing; gpu prefilter only)")
		faultSeed = flag.Int64("fault-seed", 0, "fault schedule seed (0 = derive from -seed)")
		faultDie  = flag.Int("fault-die", 0, "simulated GPU 0 dies at its Nth launch (0 = never; gpu prefilter only)")
	)
	flag.Parse()

	// The input source: simulated data is materialized up front; file mode
	// decodes FASTQ incrementally, peeking only the first record to learn
	// the read length before the mapper is built. The reference is a
	// mapper.Reference either way — a single simulated contig under -sim,
	// every FASTA record otherwise.
	var ref *mapper.Reference
	var seqs [][]byte
	var names []string
	var pairs []mapper.ReadPair
	var src1, src2 *fastqSource
	fileMode := false
	simGenome := func() []byte {
		cfg := simdata.DefaultGenomeConfig(*genomeLen)
		cfg.Seed = *seed
		g := simdata.Genome(cfg)
		ref = mapper.SingleContig("chrSim", g)
		return g
	}
	switch {
	case *sim && *paired:
		genome := simGenome()
		profile := simdata.Illumina100
		profile.Length = *readLen
		simPairs, err := simdata.SimulatePairs(genome, profile, *nReads, *insMean, *insStd, *seed+1)
		if err != nil {
			fatal(err)
		}
		for _, p := range simPairs {
			pairs = append(pairs, mapper.ReadPair{R1: p.R1.Seq, R2: p.R2.Seq})
		}
	case *sim:
		genome := simGenome()
		profile := simdata.Illumina100
		profile.Length = *readLen
		reads, err := simdata.SimulateReads(genome, profile, *nReads, *seed+1)
		if err != nil {
			fatal(err)
		}
		for _, r := range reads {
			seqs = append(seqs, r.Seq)
		}
	case *refFile != "" && *readsFile != "":
		fileMode = true
		rf, err := os.Open(*refFile)
		if err != nil {
			fatal(err)
		}
		recs, err := dna.ReadFASTA(rf)
		_ = rf.Close() //gk:allow errcheck: read-only input; read errors surface via ReadFASTA
		if err != nil {
			fatal(err)
		}
		if len(recs) == 0 {
			fatal(fmt.Errorf("no sequences in %s", *refFile))
		}
		ref, err = mapper.NewReference(recs)
		if err != nil {
			fatal(err)
		}
		src1, err = openFASTQ(*readsFile)
		if err != nil {
			fatal(err)
		}
		defer src1.close()
		first, ok, err := src1.peek()
		if err != nil {
			fatal(err)
		}
		if !ok {
			fatal(fmt.Errorf("no reads in %s", *readsFile))
		}
		*readLen = len(first.Seq)
		src1.readLen = *readLen
		if *paired {
			if *reads2 == "" {
				fatal(fmt.Errorf("-paired file mode needs -reads2"))
			}
			src2, err = openFASTQ(*reads2)
			if err != nil {
				fatal(err)
			}
			defer src2.close()
			src2.readLen = *readLen
		}
	default:
		fatal(fmt.Errorf("provide -sim, or both -ref and -reads-file"))
	}

	cfg := mapper.Config{ReadLen: *readLen, MaxE: *e, MaxReadsPerBatch: *batch,
		BothStrands: *strands, Traceback: *samOut != "", StreamWorkers: *workers,
		SeedStep: *seedStep}
	switch *preFilter {
	case "gpu":
		enc := gkgpu.EncodeOnDevice
		if *encoding == "host" {
			enc = gkgpu.EncodeOnHost
		}
		cctx := cuda.NewUniformContext(*nGPUs, cuda.GTX1080Ti())
		eng, err := gkgpu.NewEngine(gkgpu.Config{
			ReadLen: *readLen, MaxE: *e, Encoding: enc, MaxBatchPairs: 1 << 16,
		}, cctx)
		if err != nil {
			fatal(err)
		}
		defer eng.Close()
		// Fault plans attach after the engine's own buffer allocation so a
		// chaos run exercises the retry/re-split machinery, not startup.
		// Runs survive (bit-identically) while a device remains; otherwise
		// the run exits non-zero with the classified taxonomy error and -sam
		// leaves no partial file behind.
		injectFaults(cctx, *faultRate, *faultSeed, *seed, *faultDie)
		cfg.Filter = eng
	case "cpu":
		cpu, err := gkgpu.NewCPUEngine(*readLen, *e, 12, gkgpu.Setup1(), cuda.DefaultCostModel())
		if err != nil {
			fatal(err)
		}
		cfg.Filter = cpu
	case "none":
	default:
		fatal(fmt.Errorf("unknown prefilter %q", *preFilter))
	}

	var m *mapper.Mapper
	var err error
	if *indexFile != "" {
		// The serialized index carries its own k and step; the mapper adopts
		// them (and rejects the file if it wasn't built from this reference).
		m, err = mapper.NewFromSerializedIndex(ref, *indexFile, cfg)
	} else {
		m, err = mapper.NewFromReference(ref, cfg)
	}
	if err != nil {
		fatal(err)
	}

	// -sam needs the sequences (and names) back at output time, so the
	// channel-fed paths retain them while feeding; without it nothing is
	// kept and the mapper holds only the batch it is mapping.
	retain := *samOut != ""
	// The insert window passes straight through: a zero bound means
	// "estimate this bound from confidently mapped pairs" (both zero
	// estimates the whole window), so a lone -insert-min or -insert-max
	// pins one side and never falls back to the sim-only
	// -insert-mean/-std defaults. An inverted explicit window is rejected
	// before any mapping work runs.
	win := mapper.InsertWindow{Min: *insMin, Max: *insMax}
	if *insMin > 0 && *insMax > 0 && *insMax < *insMin {
		fatal(fmt.Errorf("-insert-min %d > -insert-max %d", *insMin, *insMax))
	}

	var mappings []mapper.Mapping
	var resolved []mapper.PairMapping
	var st mapper.Stats
	switch {
	case *paired && (*stream || fileMode):
		// Channel-fed paired mapping; file mode decodes both FASTQs in
		// lockstep as the pipeline consumes them.
		ch := make(chan mapper.PairRead, 256)
		feedErr := make(chan error, 1)
		go func() {
			defer close(ch)
			if fileMode {
				feedErr <- feedFilePairs(ch, src1, src2, retain, &pairs, &names)
			} else {
				feedErr <- feedSimPairs(ch, pairs)
			}
		}()
		resolved, st, err = m.MapPairStream(ch, *e, win)
		if ferr := <-feedErr; ferr != nil {
			// An input malformation is the root cause; it wins over
			// whatever the starved pipeline reported downstream.
			err = ferr
		}
	case *paired:
		resolved, st, err = m.MapPairs(pairs, *e, win)
	case *stream:
		ch := make(chan mapper.Read, 256)
		feedErr := make(chan error, 1)
		go func() {
			defer close(ch)
			if fileMode {
				feedErr <- feedFileReads(ch, src1, retain, &seqs, &names)
			} else {
				feedErr <- feedSimReads(ch, seqs)
			}
		}()
		mappings, st, err = m.MapReadStream(ch, *e)
		if ferr := <-feedErr; ferr != nil {
			// An input malformation is the root cause; it wins over
			// whatever the starved pipeline reported downstream.
			err = ferr
		}
	case fileMode:
		// One-shot file mode: the scanner still decodes incrementally (same
		// framing and length validation), collected for batch MapReads.
		for {
			rec, ok, rerr := src1.next()
			if rerr != nil {
				fatal(rerr)
			}
			if !ok {
				break
			}
			seqs = append(seqs, rec.Seq)
			names = append(names, rec.Name)
		}
		mappings, st, err = m.MapReads(seqs, *e)
	default:
		mappings, st, err = m.MapReads(seqs, *e)
	}
	if err != nil {
		fatal(err)
	}

	if *paired {
		fmt.Printf("read pairs:          %s\n", metrics.FmtInt(st.ReadPairs))
		fmt.Printf("concordant pairs:    %s (%.1f%%)\n", metrics.FmtInt(st.ConcordantPairs),
			100*float64(st.ConcordantPairs)/float64(max(st.ReadPairs, 1)))
		if st.InsertSampledPairs > 0 {
			fmt.Printf("insert window:       [%d,%d] (estimated mean %.0f ± %.0f from %d pairs)\n",
				st.InsertWindowMin, st.InsertWindowMax, st.InsertMean, st.InsertStd, st.InsertSampledPairs)
		} else {
			fmt.Printf("insert window:       [%d,%d] (explicit)\n", st.InsertWindowMin, st.InsertWindowMax)
		}
	}
	fmt.Printf("reads:               %s\n", metrics.FmtInt(st.Reads))
	fmt.Printf("candidate mappings:  %s\n", metrics.FmtInt(st.CandidatePairs))
	fmt.Printf("verification pairs:  %s\n", metrics.FmtInt(st.VerificationPairs))
	fmt.Printf("rejected pairs:      %s (%.1f%% reduction)\n",
		metrics.FmtInt(st.RejectedPairs), 100*st.Reduction())
	fmt.Printf("undefined pairs:     %s\n", metrics.FmtInt(st.UndefinedPairs))
	fmt.Printf("mappings:            %s\n", metrics.FmtInt(st.Mappings))
	fmt.Printf("mapped reads:        %s\n", metrics.FmtInt(st.MappedReads))
	if ref.NumContigs() > 1 {
		// Per-contig breakdown: where the mappings (or resolved pairs)
		// landed across the reference's contigs.
		perContig := make([]int64, ref.NumContigs())
		if *paired {
			for _, pm := range resolved {
				perContig[pm.Mate1.Contig] += 2 // both mates, same contig
			}
		} else {
			for _, mp := range mappings {
				perContig[mp.Contig]++
			}
		}
		fmt.Printf("contigs:             %d\n", ref.NumContigs())
		for i, c := range ref.Contigs() {
			what := "mappings"
			if *paired {
				what = "mate records"
			}
			fmt.Printf("  %-16s len %-10d %s %s\n", c.Name, c.Len, what, metrics.FmtInt(perContig[i]))
		}
	}
	if *showMet {
		// The process-wide hot-path counters: one line, so the parallel
		// pipeline's actual work volume is observable next to the stats.
		fmt.Printf("metrics:             filtrations=%d seed_lookups=%d contig_locates=%d\n",
			metrics.Filtrations.Load(), metrics.SeedLookups.Load(), metrics.ContigLocates.Load())
	}
	fmt.Printf("seeding:             %.3fs\n", st.SeedSeconds)
	fmt.Printf("filter (wall):       %.3fs\n", st.FilterWallSeconds)
	fmt.Printf("filter kernel model: %.4fs\n", st.FilterKernelModel)
	fmt.Printf("verification:        %.3fs\n", st.VerifySeconds)
	fmt.Printf("total:               %.3fs\n", st.TotalSeconds)
	if *paired {
		var insSum int64
		for _, pm := range resolved {
			insSum += int64(pm.Insert)
		}
		if len(resolved) > 0 {
			fmt.Printf("mean insert:         %d\n", insSum/int64(len(resolved)))
		}
	}

	if *samOut != "" {
		err := writeSAMAtomic(*samOut, func(w io.Writer) error {
			if *paired {
				return mapper.WritePairedSAM(w, ref, names, pairs, resolved)
			}
			return mapper.WriteSAM(w, ref, names, seqs, mappings)
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *samOut)
	}
}

// writeSAMAtomic writes the SAM through a temp file in the destination's
// directory and renames it into place only after a clean close, so a crash,
// a full disk, or a mapping failure upstream never leaves a truncated .sam
// where a consumer (samtools, a workflow engine) would pick it up. On any
// failure the temp file is removed and the destination is untouched.
func writeSAMAtomic(dest string, write func(io.Writer) error) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(dest), filepath.Base(dest)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = tmp.Close()           //gk:allow errcheck: already failing; the remove is the cleanup that matters
			_ = os.Remove(tmp.Name()) //gk:allow errcheck: best-effort cleanup on a failure path
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	// Sync before rename: the rename must never promote a file whose bytes
	// the OS still holds only in cache.
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), dest)
}

// injectFaults attaches seeded fault plans to every device of the filter
// context: launch and transfer faults at the given per-op rate on all
// devices, plus device 0 dying at its dieAt'th launch.
func injectFaults(cctx *cuda.Context, rate float64, faultSeed, seed int64, dieAt int) {
	if rate <= 0 && dieAt <= 0 {
		return
	}
	if faultSeed == 0 {
		faultSeed = seed + 1000
	}
	for i, d := range cctx.Devices() {
		plan := cuda.NewFaultPlan(faultSeed+int64(i)).
			WithRate(cuda.OpLaunch, rate).
			WithRate(cuda.OpTransfer, rate/2)
		if dieAt > 0 && i == 0 {
			plan.DieAtLaunch(dieAt)
		}
		d.InjectFaults(plan)
	}
}

// fastqSource decodes one FASTQ file incrementally, with one record of
// lookahead so the read length is known before the mapper is built.
type fastqSource struct {
	path    string
	f       *os.File
	sc      *dna.FASTQScanner
	peeked  *dna.Record
	n       int // records handed out
	readLen int // 0 until the first record fixes it
}

func openFASTQ(path string) (*fastqSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &fastqSource{path: path, f: f, sc: dna.NewFASTQScanner(f)}, nil
}

func (s *fastqSource) close() { _ = s.f.Close() } //gk:allow errcheck: read-only input; scan errors surface via peek/next

// peek returns the next record without consuming it.
func (s *fastqSource) peek() (dna.Record, bool, error) {
	if s.peeked == nil {
		if !s.sc.Scan() {
			return dna.Record{}, false, s.sc.Err()
		}
		rec := s.sc.Record()
		s.peeked = &rec
	}
	return *s.peeked, true, nil
}

// next consumes one record, enforcing the uniform read length the mapper
// requires (the first record fixes it).
func (s *fastqSource) next() (dna.Record, bool, error) {
	rec, ok, err := s.peek()
	if !ok || err != nil {
		return dna.Record{}, false, err
	}
	s.peeked = nil
	if s.readLen == 0 {
		s.readLen = len(rec.Seq)
	} else if len(rec.Seq) != s.readLen {
		return dna.Record{}, false, fmt.Errorf("%s: read %d (%q) has length %d, expected uniform length %d",
			s.path, s.n, rec.Name, len(rec.Seq), s.readLen)
	}
	s.n++
	return rec, true, nil
}

// feedFileReads streams one FASTQ into the single-end pipeline, optionally
// retaining sequences and names for SAM output or one-shot mapping.
func feedFileReads(ch chan<- mapper.Read, src *fastqSource, retain bool, seqs *[][]byte, names *[]string) error {
	for {
		rec, ok, err := src.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if retain {
			*seqs = append(*seqs, rec.Seq)
			*names = append(*names, rec.Name)
		}
		ch <- mapper.Read{Name: rec.Name, Seq: rec.Seq}
	}
}

// feedFilePairs streams two FASTQ files in lockstep into the paired
// pipeline, enforcing equal record counts and a uniform read length across
// both mates.
func feedFilePairs(ch chan<- mapper.PairRead, src1, src2 *fastqSource, retain bool, pairs *[]mapper.ReadPair, names *[]string) error {
	for {
		r1, ok1, err := src1.next()
		if err != nil {
			return err
		}
		r2, ok2, err := src2.next()
		if err != nil {
			return err
		}
		if !ok1 && !ok2 {
			return nil
		}
		if ok1 != ok2 {
			short := src1.path
			if ok1 {
				short = src2.path
			}
			return fmt.Errorf("%s and %s have different read counts (%s ends after %d records)",
				src1.path, src2.path, short, min(src1.n, src2.n))
		}
		if retain {
			*pairs = append(*pairs, mapper.ReadPair{R1: r1.Seq, R2: r2.Seq})
			*names = append(*names, r1.Name)
		}
		ch <- mapper.PairRead{Name: r1.Name, R1: r1.Seq, R2: r2.Seq}
	}
}

func feedSimReads(ch chan<- mapper.Read, seqs [][]byte) error {
	for i, s := range seqs {
		ch <- mapper.Read{Name: fmt.Sprintf("read%d", i), Seq: s}
	}
	return nil
}

func feedSimPairs(ch chan<- mapper.PairRead, pairs []mapper.ReadPair) error {
	for i, p := range pairs {
		ch <- mapper.PairRead{Name: fmt.Sprintf("pair%d", i), R1: p.R1, R2: p.R2}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gkmap: %v\n", err)
	os.Exit(1)
}
