package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/dna"
	"repro/internal/mapper"
	"repro/internal/simdata"
)

// Repeat family stamped over the se-repeats reference: a few Alu-like
// units, each copy diverged from its unit, together covering a large share
// of every contig. Seeds from such reads hit many copies, so most
// candidates are near misses the filter can reject.
const (
	repeatUnits    = 8
	repeatUnitLen  = 300
	repeatCoverage = 0.40
	repeatDiv      = 0.12
)

// origin is where a simulated read (or mate) truly came from: the window
// start of its forward-strand alignment on one contig.
type origin struct {
	contig, pos int
}

// inputs are the files a workload maps, written before timing, plus the
// truth the benchmark alone knows.
type inputs struct {
	fasta string
	fastq []string // one file, or R1 and R2 for paired-end
	gkix  string   // "" unless the workload loads its index

	reads                 int // FASTQ records, both mates counted
	fastqBytes, gkixBytes int64

	// truth holds one origin per read, or per mate (2i is R1 of pair i,
	// 2i+1 its R2) for paired-end.
	truth []origin
}

// generate writes the workload's seeded inputs into dir. The same seed
// gives byte-identical files.
func generate(w workload, seed int64, dir string) (*inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	recs := make([]dna.Record, 0, w.contigs)
	for i, n := range contigLengths(w.bases, w.contigs) {
		cfg := simdata.DefaultGenomeConfig(n)
		cfg.Seed = rng.Int63()
		recs = append(recs, dna.Record{Name: fmt.Sprintf("chr%d", i+1), Seq: simdata.Genome(cfg)})
	}
	if w.repeats {
		stampRepeatFamily(rng, recs)
	}
	in := &inputs{fasta: filepath.Join(dir, "ref.fa")}
	if err := writeFile(in.fasta, func(bw *bufio.Writer) error { return dna.WriteFASTA(bw, recs) }); err != nil {
		return nil, err
	}

	var err error
	if w.mode == pairStream {
		err = in.simulatePairs(rng, recs, w.reads, dir)
	} else {
		err = in.simulateReads(rng, recs, w.reads, dir)
	}
	if err != nil {
		return nil, err
	}
	for _, path := range in.fastq {
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		in.fastqBytes += fi.Size()
	}

	if w.loadIndex {
		ref, err := mapper.NewReference(recs)
		if err != nil {
			return nil, err
		}
		idx, err := mapper.NewSteppedReferenceIndex(ref, mapper.DefaultSeedLen, 1)
		if err != nil {
			return nil, err
		}
		in.gkix = filepath.Join(dir, "ref.gkix")
		if err := idx.SerializeToFile(in.gkix); err != nil {
			return nil, err
		}
		fi, err := os.Stat(in.gkix)
		if err != nil {
			return nil, err
		}
		in.gkixBytes = fi.Size()
	}
	return in, nil
}

// contigLengths splits total into n contigs of decreasing length, the way
// chromosomes shrink down a karyotype.
func contigLengths(total, n int) []int {
	weights, sum := make([]int, n), 0
	for i := range weights {
		weights[i] = 2*n - i
		sum += weights[i]
	}
	lens, left := make([]int, n), total
	for i := range lens {
		lens[i] = total * weights[i] / sum
		left -= lens[i]
	}
	lens[0] += left
	return lens
}

// share splits n reads over contigs in proportion to their length.
func share(n int, recs []dna.Record) []int {
	total := 0
	for _, r := range recs {
		total += len(r.Seq)
	}
	out, left := make([]int, len(recs)), n
	for i, r := range recs {
		out[i] = n * len(r.Seq) / total
		left -= out[i]
	}
	out[0] += left
	return out
}

// stampRepeatFamily overwrites repeatCoverage of every contig with copies
// of repeatUnits random units, each base of a copy replaced by a random
// base with probability repeatDiv.
func stampRepeatFamily(rng *rand.Rand, recs []dna.Record) {
	units := make([][]byte, repeatUnits)
	for i := range units {
		units[i] = dna.RandomSeq(rng, repeatUnitLen)
	}
	for _, rec := range recs {
		g := rec.Seq
		copies := int(float64(len(g)) * repeatCoverage / repeatUnitLen)
		for c := 0; c < copies; c++ {
			u := units[rng.Intn(len(units))]
			dst := rng.Intn(len(g) - len(u))
			for i, b := range u {
				if rng.Float64() < repeatDiv {
					b = dna.Alphabet[rng.Intn(4)]
				}
				g[dst+i] = b
			}
		}
	}
}

// simulateReads samples single-end reads from every contig, shuffles them
// as a sequencer's output would be, and writes reads.fq.
func (in *inputs) simulateReads(rng *rand.Rand, recs []dna.Record, n int, dir string) error {
	profile := simdata.Illumina100
	var reads []simdata.SimRead
	for ci, k := range share(n, recs) {
		rs, err := simdata.SimulateReads(recs[ci].Seq, profile, k, rng.Int63())
		if err != nil {
			return err
		}
		for _, r := range rs {
			reads = append(reads, r)
			in.truth = append(in.truth, origin{contig: ci, pos: r.TruePos})
		}
	}
	rng.Shuffle(len(reads), func(i, j int) {
		reads[i], reads[j] = reads[j], reads[i]
		in.truth[i], in.truth[j] = in.truth[j], in.truth[i]
	})
	out := make([]dna.Record, len(reads))
	for i, r := range reads {
		out[i] = dna.Record{Name: fmt.Sprintf("r%d", i), Seq: r.Seq}
	}
	in.reads = len(out)
	in.fastq = []string{filepath.Join(dir, "reads.fq")}
	return writeFile(in.fastq[0], func(bw *bufio.Writer) error { return dna.WriteFASTQ(bw, out) })
}

// simulatePairs samples FR mate pairs from every contig, shuffles them,
// and writes r1.fq and r2.fq.
func (in *inputs) simulatePairs(rng *rand.Rand, recs []dna.Record, n int, dir string) error {
	profile := simdata.Illumina100
	var pairs []simdata.SimReadPair
	var truth []origin
	for ci, k := range share(n, recs) {
		ps, err := simdata.SimulatePairs(recs[ci].Seq, profile, k, insertMean, insertStd, rng.Int63())
		if err != nil {
			return err
		}
		for _, p := range ps {
			pairs = append(pairs, p)
			truth = append(truth, origin{ci, p.R1.TruePos}, origin{ci, p.R2.TruePos})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) {
		pairs[i], pairs[j] = pairs[j], pairs[i]
		truth[2*i], truth[2*j] = truth[2*j], truth[2*i]
		truth[2*i+1], truth[2*j+1] = truth[2*j+1], truth[2*i+1]
	})
	r1 := make([]dna.Record, len(pairs))
	r2 := make([]dna.Record, len(pairs))
	for i, p := range pairs {
		r1[i] = dna.Record{Name: fmt.Sprintf("p%d/1", i), Seq: p.R1.Seq}
		r2[i] = dna.Record{Name: fmt.Sprintf("p%d/2", i), Seq: p.R2.Seq}
	}
	in.truth = truth
	in.reads = 2 * len(pairs)
	in.fastq = []string{filepath.Join(dir, "r1.fq"), filepath.Join(dir, "r2.fq")}
	for i, mates := range [][]dna.Record{r1, r2} {
		if err := writeFile(in.fastq[i], func(bw *bufio.Writer) error { return dna.WriteFASTQ(bw, mates) }); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path and fills it through a buffered writer.
func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = fill(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
