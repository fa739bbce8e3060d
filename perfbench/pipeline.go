package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/cuda"
	"repro/internal/dna"
	"repro/internal/gkgpu"
	"repro/internal/mapper"
)

// feedBuffer is the capacity of the channel between the FASTQ feeder and a
// streaming mapper, the same as gkmap's, so the feeder runs at most that
// many reads ahead of the mapper.
const feedBuffer = 256

// job is the outcome of one end-to-end mapping job: FASTA and FASTQ in, SAM
// out, from an empty mapper.
type job struct {
	setup    time.Duration // until the mapper is ready
	mapPhase time.Duration // FASTQ open to SAM writer flushed
	digest   string        // SHA-256 of the SAM bytes
	samBytes int64
	st       mapper.Stats
	eng      gkgpu.Stats // the job's own engine, so these are its deltas
	entries  int         // index entries
	recall   float64
	cpu      time.Duration // process CPU time over the map phase
	alloc    uint64        // bytes allocated over the map phase
	gcs      uint32        // GC cycles over the map phase
	peakRSS  int64         // VmHWM after the job; 0 if unknown
	trace    *tracer       // traced jobs only
}

// runJob maps in end to end with the given filter. A non-nil tr records
// spans around every call the job makes into a layer.
func runJob(w workload, in *inputs, kind engineKind, tr *tracer) (*job, error) {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()

	j := &job{}
	root := tr.begin("job", 0)
	start := time.Now()
	rd, err := setUp(w, in, kind, tr, root)
	if err != nil {
		return nil, err
	}
	defer rd.close()
	j.setup = time.Since(start)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	mapStart := time.Now()
	out, err := mapInputs(w, in, rd, tr, root)
	j.mapPhase = time.Since(mapStart)
	j.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	j.peakRSS = peakRSS()
	j.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	j.gcs = ms1.NumGC - ms0.NumGC
	j.digest, j.samBytes, j.st = out.digest, out.samBytes, out.st
	j.recall = out.recall(in.truth)
	j.entries = rd.m.Index().Entries()
	if rd.stats != nil {
		j.eng = rd.stats()
	}
	j.trace = tr
	return j, nil
}

// ready is a mapper ready to map, with the engine behind it.
type ready struct {
	m     *mapper.Mapper
	stats func() gkgpu.Stats // nil without a filter
	close func()
	// setParent directs the traced filter's call spans to a parent span;
	// a no-op when untraced.
	setParent func(int)
}

// setUp is everything before the first read: FASTA decode, the contig
// table, engine construction, then the index build or GKIX load, which
// also hands the reference to the engine.
func setUp(w workload, in *inputs, kind engineKind, tr *tracer, parent int) (*ready, error) {
	id := tr.begin("setup", parent)
	defer tr.end(id)

	s := tr.begin("dna.fasta", id)
	f, err := os.Open(in.fasta)
	if err != nil {
		return nil, err
	}
	recs, err := dna.ReadFASTA(f)
	_ = f.Close() //gk:allow errcheck: read-only input; read errors surface via ReadFASTA
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("mapper.reference", id)
	ref, err := mapper.NewReference(recs)
	tr.end(s)
	if err != nil {
		return nil, err
	}

	rd := &ready{close: func() {}, setParent: func(int) {}}
	cfg := mapper.Config{ReadLen: readLen, MaxE: maxE, Traceback: true}
	s = tr.begin("gkgpu.new_engine", id)
	switch kind {
	case gpuEngine:
		eng, err := gkgpu.NewEngine(gkgpu.Config{ReadLen: readLen, MaxE: maxE,
			Encoding: gkgpu.EncodeOnDevice, MaxBatchPairs: 1 << 16}, cuda.NewUniformContext(1, cuda.GTX1080Ti()))
		if err != nil {
			return nil, err
		}
		cfg.Filter, rd.stats, rd.close = eng, eng.Stats, eng.Close
	case cpuEngine:
		eng, err := gkgpu.NewCPUEngine(readLen, maxE, runtime.GOMAXPROCS(0), gkgpu.Setup1(), cuda.DefaultCostModel())
		if err != nil {
			return nil, err
		}
		cfg.Filter, rd.stats = eng, eng.Stats
	}
	tr.end(s)
	if tr != nil && cfg.Filter != nil {
		cfg.Filter, rd.setParent = traced(w, cfg.Filter, tr)
	}

	name := "index.build"
	if w.loadIndex {
		name = "index.load"
	}
	s = tr.begin(name, id)
	rd.setParent(s)
	if w.loadIndex {
		rd.m, err = mapper.NewFromSerializedIndex(ref, in.gkix, cfg)
	} else {
		rd.m, err = mapper.NewFromReference(ref, cfg)
	}
	tr.end(s)
	if err != nil {
		rd.close()
		return nil, err
	}
	return rd, nil
}

// traced wraps an engine so its calls are timed without changing the path
// the mapper takes through it.
func traced(w workload, f mapper.PreFilter, tr *tracer) (mapper.PreFilter, func(int)) {
	if eng, ok := f.(*gkgpu.Engine); ok && w.mode != oneShot {
		t := &refTimedEngine{Engine: eng, tr: tr}
		return t, func(p int) { t.parent = p }
	}
	t := &timedFilter{inner: f.(mapper.CandidateFilter), tr: tr}
	return t, func(p int) { t.parent = p }
}

// timedFilter passes every call through to the engine it wraps and records
// a span per call. It implements exactly mapper.CandidateFilter: the whole
// interface set of the CPU engine, and all that the one-shot MapReads path
// looks for on the GPU engine, so the mapper takes the same path as it does
// with the bare engine.
type timedFilter struct {
	inner  mapper.CandidateFilter
	tr     *tracer
	parent int // set before each phase, never during one
}

func (f *timedFilter) FilterPairs(pairs []gkgpu.Pair, e int) ([]gkgpu.Result, error) {
	id := f.tr.begin("gkgpu.filter_pairs", f.parent)
	res, err := f.inner.FilterPairs(pairs, e)
	f.tr.end(id)
	return res, err
}

func (f *timedFilter) SetReference(seq []byte) error {
	id := f.tr.begin("gkgpu.set_reference", f.parent)
	err := f.inner.SetReference(seq)
	f.tr.end(id)
	return err
}

func (f *timedFilter) FilterCandidates(reads [][]byte, cands []gkgpu.Candidate, e int) ([]gkgpu.Result, error) {
	id := f.tr.begin("gkgpu.filter_candidates", f.parent)
	res, err := f.inner.FilterCandidates(reads, cands, e)
	f.tr.end(id)
	return res, err
}

// refTimedEngine is the GPU engine with only SetReference timed. Every
// other method, FilterCandidateStream included, is the engine's own, so the
// streaming mapper keeps the engine's candidate-stream path; filter time on
// that path comes from the engine's Stats instead of spans.
type refTimedEngine struct {
	*gkgpu.Engine
	tr     *tracer
	parent int
}

func (f *refTimedEngine) SetReference(seq []byte) error {
	id := f.tr.begin("gkgpu.set_reference", f.parent)
	err := f.Engine.SetReference(seq)
	f.tr.end(id)
	return err
}

// mapped is what the map phase produced.
type mapped struct {
	digest   string
	samBytes int64
	st       mapper.Stats
	single   []mapper.Mapping     // single-end workloads
	pairs    []mapper.PairMapping // paired-end workload
}

// recall is the share of reads (mates) with a reported mapping within e of
// their true origin.
func (o *mapped) recall(truth []origin) float64 {
	hit := make([]bool, len(truth))
	near := func(i int, m mapper.Mapping) {
		t := truth[i]
		if m.Contig == t.contig && m.Pos >= t.pos-maxE && m.Pos <= t.pos+maxE {
			hit[i] = true
		}
	}
	for _, m := range o.single {
		near(m.ReadID, m)
	}
	for _, p := range o.pairs {
		near(2*p.PairID, p.Mate1)
		near(2*p.PairID+1, p.Mate2)
	}
	n := 0
	for _, h := range hit {
		if h {
			n++
		}
	}
	return float64(n) / float64(len(truth))
}

// samSink hashes and counts SAM bytes instead of storing them.
type samSink struct {
	h hash.Hash
	n int64
}

func (s *samSink) Write(p []byte) (int, error) {
	_, _ = s.h.Write(p) //gk:allow errcheck: a hash.Hash Write never fails
	s.n += int64(len(p))
	return len(p), nil
}

// decodeTimer sums the time spent in FASTQScanner.Scan on traced jobs.
type decodeTimer struct {
	on          bool
	first, last time.Time
	busy        time.Duration
	calls       int
}

func (d *decodeTimer) scan(sc *dna.FASTQScanner) bool {
	if !d.on {
		return sc.Scan()
	}
	t0 := time.Now()
	ok := sc.Scan()
	t1 := time.Now()
	if d.calls == 0 {
		d.first = t0
	}
	d.last = t1
	d.busy += t1.Sub(t0)
	d.calls++
	return ok
}

// mapInputs is the map phase: open the FASTQ, decode, seed, filter,
// verify, and write SAM to a hashing sink.
func mapInputs(w workload, in *inputs, rd *ready, tr *tracer, parent int) (*mapped, error) {
	id := tr.begin("map", parent)
	defer tr.end(id)
	dec := &decodeTimer{on: tr != nil}
	var files []*os.File
	defer func() {
		for _, f := range files {
			_ = f.Close() //gk:allow errcheck: read-only input; read errors surface via Scan
		}
	}()
	var scanners []*dna.FASTQScanner
	for _, path := range in.fastq {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		scanners = append(scanners, dna.NewFASTQScanner(f))
	}

	out := &mapped{}
	sink := &samSink{h: sha256.New()}
	ref := rd.m.Reference()
	var names []string
	var seqs [][]byte
	var err error
	switch w.mode {
	case oneShot:
		sc := scanners[0]
		for dec.scan(sc) {
			rec := sc.Record()
			names, seqs = append(names, rec.Name), append(seqs, rec.Seq)
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		tr.aggregate("dna.fastq", id, dec.first, dec.last, dec.busy, dec.calls)
		s := tr.begin("mapper.map_reads", id)
		rd.setParent(s)
		out.single, out.st, err = rd.m.MapReads(seqs, maxE)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("mapper.write_sam", id)
		err = mapper.WriteSAM(sink, ref, names, seqs, out.single)
		tr.end(s)

	case readStream:
		ch := make(chan mapper.Read, feedBuffer)
		feedErr := make(chan error, 1)
		go func() {
			defer close(ch)
			feedErr <- feedReads(scanners[0], dec, ch, &names, &seqs)
		}()
		s := tr.begin("mapper.map_read_stream", id)
		rd.setParent(s)
		out.single, out.st, err = rd.m.MapReadStream(ch, maxE)
		tr.end(s)
		if ferr := <-feedErr; ferr != nil {
			err = ferr
		}
		tr.aggregate("dna.fastq", id, dec.first, dec.last, dec.busy, dec.calls)
		if err != nil {
			return nil, err
		}
		s = tr.begin("mapper.write_sam", id)
		err = mapper.WriteSAM(sink, ref, names, seqs, out.single)
		tr.end(s)

	case pairStream:
		var pairs []mapper.ReadPair
		ch := make(chan mapper.PairRead, feedBuffer)
		feedErr := make(chan error, 1)
		go func() {
			defer close(ch)
			feedErr <- feedPairs(scanners[0], scanners[1], dec, ch, &names, &pairs)
		}()
		s := tr.begin("mapper.map_pair_stream", id)
		rd.setParent(s)
		out.pairs, out.st, err = rd.m.MapPairStream(ch, maxE, mapper.InsertWindow{})
		tr.end(s)
		if ferr := <-feedErr; ferr != nil {
			err = ferr
		}
		tr.aggregate("dna.fastq", id, dec.first, dec.last, dec.busy, dec.calls)
		if err != nil {
			return nil, err
		}
		s = tr.begin("mapper.write_paired_sam", id)
		err = mapper.WritePairedSAM(sink, ref, names, pairs, out.pairs)
		tr.end(s)
	}
	if err != nil {
		return nil, err
	}
	out.digest, out.samBytes = hex.EncodeToString(sink.h.Sum(nil)), sink.n
	return out, nil
}

// feedReads decodes every read into ch, keeping names and sequences for
// the SAM writer.
func feedReads(sc *dna.FASTQScanner, dec *decodeTimer, ch chan<- mapper.Read, names *[]string, seqs *[][]byte) error {
	for dec.scan(sc) {
		rec := sc.Record()
		*names, *seqs = append(*names, rec.Name), append(*seqs, rec.Seq)
		ch <- mapper.Read{Name: rec.Name, Seq: rec.Seq}
	}
	return sc.Err()
}

// feedPairs decodes the two mate files in lockstep into ch, keeping names
// and pairs for the SAM writer.
func feedPairs(sc1, sc2 *dna.FASTQScanner, dec *decodeTimer, ch chan<- mapper.PairRead,
	names *[]string, pairs *[]mapper.ReadPair) error {
	for {
		ok1, ok2 := dec.scan(sc1), dec.scan(sc2)
		if !ok1 || !ok2 {
			if err := sc1.Err(); err != nil {
				return err
			}
			if err := sc2.Err(); err != nil {
				return err
			}
			if ok1 != ok2 {
				return fmt.Errorf("mate files hold different numbers of reads")
			}
			return nil
		}
		r1, r2 := sc1.Record(), sc2.Record()
		*names = append(*names, r1.Name)
		*pairs = append(*pairs, mapper.ReadPair{R1: r1.Seq, R2: r2.Seq})
		ch <- mapper.PairRead{Name: r1.Name, R1: r1.Seq, R2: r2.Seq}
	}
}
