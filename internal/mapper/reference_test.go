package mapper

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/dna"
	"repro/internal/gkgpu"
	"repro/internal/simdata"
)

func mustReference(t *testing.T, recs ...dna.Record) *Reference {
	t.Helper()
	r, err := NewReference(recs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestReferenceTable(t *testing.T) {
	r := mustReference(t,
		dna.Record{Name: "chrA", Seq: []byte("ACGTACGTAC")},              // [0,10)
		dna.Record{Name: "chrB Homo sapiens", Seq: []byte("TTTT")},       // [10,14)
		dna.Record{Name: "chrC", Desc: "plasmid", Seq: []byte("GGGGGG")}, // [14,20)
	)
	if r.Len() != 20 || r.NumContigs() != 3 {
		t.Fatalf("table: len %d contigs %d", r.Len(), r.NumContigs())
	}
	if string(r.Seq()) != "ACGTACGTACTTTTGGGGGG" {
		t.Fatalf("concatenation drifted: %s", r.Seq())
	}
	// Names stay SAM-legal: a whitespace-bearing name splits into id+desc.
	if c := r.Contig(1); c.Name != "chrB" || c.Desc != "Homo sapiens" || c.Off != 10 || c.Len != 4 {
		t.Fatalf("contig 1: %+v", c)
	}
	if c := r.Contig(2); c.Desc != "plasmid" {
		t.Fatalf("contig 2 description lost: %+v", c)
	}
	for pos, want := range map[int]int{0: 0, 9: 0, 10: 1, 13: 1, 14: 2, 19: 2} {
		if got := r.ContigOf(pos); got != want {
			t.Fatalf("ContigOf(%d) = %d, want %d", pos, got, want)
		}
	}
	if r.ContigOf(-1) != -1 || r.ContigOf(20) != -1 {
		t.Fatal("out-of-range position located")
	}
	ci, rel := r.Locate(12)
	if ci != 1 || rel != 2 {
		t.Fatalf("Locate(12) = (%d,%d)", ci, rel)
	}
	// Window containment: inside one contig ok, straddling or overflowing no.
	if r.WindowContig(10, 4) != 1 {
		t.Fatal("in-contig window rejected")
	}
	for _, w := range [][2]int{{8, 4}, {12, 4}, {18, 4}, {-1, 4}} {
		if got := r.WindowContig(w[0], w[1]); got != -1 {
			t.Fatalf("window (%d,%d) accepted into contig %d", w[0], w[1], got)
		}
	}
	if r.LookupContig("chrB") != 1 || r.LookupContig("chrX") != -1 {
		t.Fatal("LookupContig")
	}
}

func TestReferenceValidation(t *testing.T) {
	if _, err := NewReference(nil); err == nil {
		t.Fatal("empty reference accepted")
	}
	if _, err := NewReference([]dna.Record{{Name: "", Seq: []byte("ACGT")}}); err == nil {
		t.Fatal("unnamed contig accepted")
	}
	if _, err := NewReference([]dna.Record{
		{Name: "c", Seq: []byte("ACGT")}, {Name: "c", Seq: []byte("TTTT")},
	}); err == nil {
		t.Fatal("duplicate contig name accepted")
	}
	if _, err := NewReference([]dna.Record{{Name: "c", Seq: nil}}); err == nil {
		t.Fatal("empty contig accepted")
	}
}

// multiContigOracle is mapOracle with contig boundaries: windows roll per
// contig, so nothing straddles.
func multiContigOracle(r *Reference, k int) map[uint32][]int64 {
	oracle := make(map[uint32][]int64)
	for _, c := range r.Contigs() {
		var key uint32
		mask := uint32(1)<<(2*k) - 1
		valid := 0
		for i := c.Off; i < c.End(); i++ {
			code, ok := dna.Code(r.Seq()[i])
			if !ok {
				valid = 0
				key = 0
				continue
			}
			key = (key<<2 | uint32(code)) & mask
			valid++
			if valid >= k {
				oracle[key] = append(oracle[key], int64(i-k+1))
			}
		}
	}
	return oracle
}

// TestReferenceIndexBoundaries pins the multi-contig index to the
// boundary-aware oracle: per-contig windows are all indexed, and no
// k-window spanning a contig junction ever is — even when the junction
// sequence is unique and would index fine on the concatenated bytes.
func TestReferenceIndexBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	r := mustReference(t,
		dna.Record{Name: "c1", Seq: randomRefWithNs(rng, 3000, 0.002)},
		dna.Record{Name: "c2", Seq: randomRefWithNs(rng, 50, 0)},
		dna.Record{Name: "c3", Seq: randomRefWithNs(rng, 7000, 0.002)},
	)
	for _, k := range []int{8, 13} {
		idx, err := NewReferenceIndex(r, k)
		if err != nil {
			t.Fatal(err)
		}
		oracle := multiContigOracle(r, k)
		if idx.DistinctKmers() != len(oracle) {
			t.Fatalf("k=%d: distinct %d, oracle %d", k, idx.DistinctKmers(), len(oracle))
		}
		total := 0
		for _, hits := range oracle {
			total += len(hits)
		}
		if idx.Entries() != total {
			t.Fatalf("k=%d: entries %d, oracle %d", k, idx.Entries(), total)
		}
		seq := r.Seq()
		for i := 0; i+k <= len(seq); i++ {
			window := seq[i : i+k]
			got := idx.Lookup(window)
			if dna.HasN(window) {
				if got != nil {
					t.Fatalf("k=%d: N-window returned hits", k)
				}
				continue
			}
			want := oracle[packKey(window)]
			if len(got) != len(want) {
				t.Fatalf("k=%d window@%d: %d hits, want %d", k, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("k=%d window@%d: hit[%d]=%d, want %d", k, i, j, got[j], want[j])
				}
			}
		}
		// Every hit's window must sit wholly inside one contig.
		for _, p := range idx.pos {
			if r.WindowContig(int(p), k) < 0 {
				t.Fatalf("k=%d: indexed window at %d straddles a boundary", k, p)
			}
		}
	}
}

// TestShardedBuildIdentity holds the parallel per-contig-shard build to the
// sequential result: the CSR arrays must be bit-identical whatever the
// shard count, including the degenerate single-shard build.
func TestShardedBuildIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var recs []dna.Record
	for i := 0; i < 9; i++ {
		recs = append(recs, dna.Record{
			Name: fmt.Sprintf("c%d", i),
			Seq:  randomRefWithNs(rng, 500+rng.Intn(4000), 0.003),
		})
	}
	r := mustReference(t, recs...)

	seq, err := buildReferenceIndex(r, 11, 1, 1) // sequential: one shard
	if err != nil {
		t.Fatal(err)
	}
	for _, maxShards := range []int{2, 3, 8, 64} {
		par, err := buildReferenceIndex(r, 11, 1, maxShards)
		if err != nil {
			t.Fatal(err)
		}
		if seq.shift != par.shift || seq.distinct != par.distinct {
			t.Fatalf("maxShards=%d: geometry drifted: shift %d/%d distinct %d/%d",
				maxShards, seq.shift, par.shift, seq.distinct, par.distinct)
		}
		if len(seq.offsets) != len(par.offsets) || len(seq.keys) != len(par.keys) ||
			len(seq.pos) != len(par.pos) {
			t.Fatalf("maxShards=%d: array lengths drifted", maxShards)
		}
		for i := range seq.offsets {
			if seq.offsets[i] != par.offsets[i] {
				t.Fatalf("maxShards=%d: offsets[%d] drifted", maxShards, i)
			}
		}
		for i := range seq.keys {
			if seq.keys[i] != par.keys[i] || seq.pos[i] != par.pos[i] {
				t.Fatalf("maxShards=%d: entry %d drifted: (%d,%d) vs (%d,%d)",
					maxShards, i, seq.keys[i], seq.pos[i], par.keys[i], par.pos[i])
			}
		}
	}
}

func TestShardContigs(t *testing.T) {
	var contigs []Contig
	off := 0
	for _, l := range []int{100, 5000, 200, 300, 4000, 50} {
		contigs = append(contigs, Contig{Off: off, Len: l})
		off += l
	}
	for _, maxShards := range []int{1, 2, 3, 6, 100} {
		shards := shardContigs(contigs, maxShards)
		if len(shards) > maxShards || len(shards) > len(contigs) || len(shards) < 1 {
			t.Fatalf("maxShards=%d: %d shards", maxShards, len(shards))
		}
		// Contiguous cover, in order.
		at := 0
		for _, sh := range shards {
			if sh.lo != at || sh.hi <= sh.lo {
				t.Fatalf("maxShards=%d: shard %+v at %d", maxShards, sh, at)
			}
			at = sh.hi
		}
		if at != len(contigs) {
			t.Fatalf("maxShards=%d: cover ends at %d", maxShards, at)
		}
	}
}

// recordingFilter is a CandidateFilter that accepts everything and records
// every candidate position it is asked to judge, so tests can assert what
// reached the filtering stage.
type recordingFilter struct {
	refLen int
	seen   []gkgpu.Candidate
}

func (f *recordingFilter) SetReference(seq []byte) error { f.refLen = len(seq); return nil }

func (f *recordingFilter) FilterPairs(pairs []gkgpu.Pair, _ int) ([]gkgpu.Result, error) {
	res := make([]gkgpu.Result, len(pairs))
	for i := range res {
		res[i].Accept = true
	}
	return res, nil
}

func (f *recordingFilter) FilterCandidates(_ [][]byte, cands []gkgpu.Candidate, _ int) ([]gkgpu.Result, error) {
	f.seen = append(f.seen, cands...)
	res := make([]gkgpu.Result, len(cands))
	for i := range res {
		res[i].Accept = true
	}
	return res, nil
}

// junctionReference builds three simulated contigs and returns reads that
// straddle each junction (half from the tail of one contig, half from the
// head of the next) — the reads a flat concatenated reference would happily
// map and a boundary-aware mapper must not.
func junctionReference(t *testing.T, readLen int) (*Reference, [][]byte) {
	t.Helper()
	var recs []dna.Record
	for i, n := range []int{20_000, 15_000, 25_000} {
		cfg := simdata.DefaultGenomeConfig(n)
		cfg.Seed = int64(31 + i)
		cfg.NRate = 0
		recs = append(recs, dna.Record{Name: fmt.Sprintf("chr%d", i+1), Seq: simdata.Genome(cfg)})
	}
	r := mustReference(t, recs...)
	var junction [][]byte
	for c := 0; c+1 < r.NumContigs(); c++ {
		end := r.Contig(c).End()
		read := append([]byte(nil), r.Seq()[end-readLen/2:end+readLen/2]...)
		junction = append(junction, read)
	}
	return r, junction
}

// TestNoCrossBoundaryCandidates is the boundary property test: reads copied
// straight off a contig junction produce no candidate that straddles the
// boundary — nothing straddling reaches the filter, verification, or the
// output — while ordinary in-contig reads still map, on every mapping path.
func TestNoCrossBoundaryCandidates(t *testing.T) {
	const L, e = 100, 3
	r, junctionReads := junctionReference(t, L)

	// In-contig reads drawn from each contig, exact copies.
	rng := rand.New(rand.NewSource(41))
	var inContig [][]byte
	wantContig := map[int]int{}
	for c := 0; c < r.NumContigs(); c++ {
		ct := r.Contig(c)
		for i := 0; i < 5; i++ {
			pos := ct.Off + rng.Intn(ct.Len-L)
			inContig = append(inContig, append([]byte(nil), r.Seq()[pos:pos+L]...))
			wantContig[len(inContig)-1] = c
		}
	}
	reads := append(append([][]byte(nil), inContig...), junctionReads...)

	rec := &recordingFilter{}
	m, err := NewFromReference(r, Config{ReadLen: L, MaxE: e, SeedLen: 10, Filter: rec})
	if err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, mappings []Mapping) {
		t.Helper()
		byRead := map[int][]Mapping{}
		for _, mp := range mappings {
			byRead[mp.ReadID] = append(byRead[mp.ReadID], mp)
			ct := r.Contig(mp.Contig)
			if mp.Pos < 0 || mp.Pos+L > ct.Len {
				t.Fatalf("mapping window leaves its contig: %+v (contig len %d)", mp, ct.Len)
			}
		}
		for i := range inContig {
			found := false
			for _, mp := range byRead[i] {
				if mp.Contig == wantContig[i] {
					found = true
				}
			}
			if !found {
				t.Fatalf("in-contig read %d not mapped to contig %d", i, wantContig[i])
			}
		}
		for j := range junctionReads {
			if got := byRead[len(inContig)+j]; len(got) != 0 {
				t.Fatalf("junction read %d mapped: %+v", j, got)
			}
		}
	}

	mappings, _, err := m.MapReads(reads, e)
	if err != nil {
		t.Fatal(err)
	}
	check(t, mappings)
	// Everything the filter was asked to judge was wholly in one contig.
	if len(rec.seen) == 0 {
		t.Fatal("recording filter saw no candidates")
	}
	for _, c := range rec.seen {
		if r.WindowContig(int(c.Pos), L) < 0 {
			t.Fatalf("cross-boundary candidate reached the filter: pos %d", c.Pos)
		}
	}

	// The channel-fed path agrees mapping for mapping.
	ch := make(chan Read, 8)
	go func() {
		defer close(ch)
		for i, s := range reads {
			ch <- Read{Name: fmt.Sprintf("r%d", i), Seq: s}
		}
	}()
	fed, _, err := m.MapReadStream(ch, e)
	if err != nil {
		t.Fatal(err)
	}
	check(t, fed)
	mustEqualMappings(t, fed, mappings, "channel-fed")
}

// TestMultiContigGoldenSAM plants exact reads on three tiny contigs and
// pins the single-end SAM output byte for byte: three @SQ lines in FASTA
// order, RNAME naming each read's contig, POS contig-relative 1-based, and
// the junction read absent.
func TestMultiContigGoldenSAM(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	a, b, c := dna.RandomSeq(rng, 80), dna.RandomSeq(rng, 70), dna.RandomSeq(rng, 90)
	r := mustReference(t,
		dna.Record{Name: "chrA", Seq: a},
		dna.Record{Name: "chrB", Desc: "described header", Seq: b},
		dna.Record{Name: "chrC", Seq: c},
	)
	const L = 20
	reads := [][]byte{
		append([]byte(nil), a[5:5+L]...),
		append([]byte(nil), b[40:40+L]...),
		append([]byte(nil), c[0:L]...),
		append(append([]byte(nil), a[80-L/2:]...), b[:L/2]...), // junction chrA|chrB
	}
	m, err := NewFromReference(r, Config{ReadLen: L, MaxE: 2, SeedLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	mappings, _, err := m.MapReads(reads, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSAM(&buf, r, nil, reads, mappings); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"@HD\tVN:1.6\tSO:unsorted",
		"@SQ\tSN:chrA\tLN:80",
		"@SQ\tSN:chrB\tLN:70",
		"@SQ\tSN:chrC\tLN:90",
		"@PG\tID:gatekeeper-gpu-repro\tPN:gkmap",
		fmt.Sprintf("read0\t0\tchrA\t6\t255\t20M\t*\t0\t0\t%s\t*\tNM:i:0", reads[0]),
		fmt.Sprintf("read1\t0\tchrB\t41\t255\t20M\t*\t0\t0\t%s\t*\tNM:i:0", reads[1]),
		fmt.Sprintf("read2\t0\tchrC\t1\t255\t20M\t*\t0\t0\t%s\t*\tNM:i:0", reads[2]),
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("multi-contig SAM drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestMultiContigGoldenPairedSAM plants one concordant pair inside chrB and
// one split pair (mates on different contigs): the same-contig pair resolves
// and prints with RNEXT '=', the split pair is discordant and absent.
func TestMultiContigGoldenPairedSAM(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	a, b := dna.RandomSeq(rng, 100), dna.RandomSeq(rng, 120)
	r := mustReference(t,
		dna.Record{Name: "chrA", Seq: a},
		dna.Record{Name: "chrB", Seq: b},
	)
	const L = 20
	pairs := []ReadPair{
		// Fragment chrB[10:70): R1 = left end, R2 = revcomp of the right end.
		{R1: append([]byte(nil), b[10:10+L]...), R2: dna.ReverseComplement(b[50 : 50+L])},
		// Split pair: R1 on chrA, R2 on chrB. Globally the windows are 60
		// bases apart — inside the insert window if boundaries were ignored.
		{R1: append([]byte(nil), a[60:60+L]...), R2: dna.ReverseComplement(b[20 : 20+L])},
	}
	m, err := NewFromReference(r, Config{ReadLen: L, MaxE: 2, SeedLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	resolved, st, err := m.MapPairs(pairs, 0, InsertWindow{Min: L, Max: 100})
	if err != nil {
		t.Fatal(err)
	}
	if st.ConcordantPairs != 1 {
		t.Fatalf("want 1 concordant pair (the split pair is discordant), got %d", st.ConcordantPairs)
	}
	var buf bytes.Buffer
	if err := WritePairedSAM(&buf, r, nil, pairs, resolved); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"@HD\tVN:1.6\tSO:unsorted",
		"@SQ\tSN:chrA\tLN:100",
		"@SQ\tSN:chrB\tLN:120",
		"@PG\tID:gatekeeper-gpu-repro\tPN:gkmap",
		fmt.Sprintf("pair0\t99\tchrB\t11\t255\t20M\t=\t51\t60\t%s\t*\tNM:i:0", pairs[0].R1),
		fmt.Sprintf("pair0\t147\tchrB\t51\t255\t20M\t=\t11\t-60\t%s\t*\tNM:i:0", dna.ReverseComplement(pairs[0].R2)),
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("multi-contig paired SAM drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSingleContigByteIdentity is the refactor's differential guard: on a
// single-contig reference, single-end and paired SAM output must be
// byte-identical to the pre-multi-contig implementation's captured output
// (testdata/single_contig_{se,pe}.sam, generated at the seed commit).
func TestSingleContigByteIdentity(t *testing.T) {
	cfg := simdata.DefaultGenomeConfig(60_000)
	cfg.Seed = 11
	genome := simdata.Genome(cfg)

	reads, err := simdata.SimulateReads(genome, simdata.Illumina100, 80, 12)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	m, err := New(genome, Config{ReadLen: 100, MaxE: 4, Traceback: true, BothStrands: true})
	if err != nil {
		t.Fatal(err)
	}
	mappings, _, err := m.MapReads(seqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSAM(&buf, SingleContig("chrSim", genome), nil, seqs, mappings); err != nil {
		t.Fatal(err)
	}
	wantSE, err := os.ReadFile("testdata/single_contig_se.sam")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), wantSE) {
		t.Fatalf("single-end single-contig SAM drifted from the pre-refactor capture (%d vs %d bytes)",
			buf.Len(), len(wantSE))
	}

	simPairs, err := simdata.SimulatePairs(genome, simdata.Illumina100, 60, 400, 40, 13)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]ReadPair, len(simPairs))
	for i, p := range simPairs {
		pairs[i] = ReadPair{R1: p.R1.Seq, R2: p.R2.Seq}
	}
	resolved, _, err := m.MapPairs(pairs, 4, InsertWindow{Min: 200, Max: 600})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WritePairedSAM(&buf, SingleContig("chrSim", genome), nil, pairs, resolved); err != nil {
		t.Fatal(err)
	}
	wantPE, err := os.ReadFile("testdata/single_contig_pe.sam")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), wantPE) {
		t.Fatalf("paired single-contig SAM drifted from the pre-refactor capture (%d vs %d bytes)",
			buf.Len(), len(wantPE))
	}
}

// TestEstimateInsertWindowSkipsSplitPairs: mates uniquely mapped to
// different contigs are not fragments; they must not enter the insert
// sample even when their contig-relative coordinates look plausible.
func TestEstimateInsertWindowSkipsSplitPairs(t *testing.T) {
	const L = 100
	var mappings []Mapping
	// 20 clean same-contig pairs with insert 300.
	for i := 0; i < 20; i++ {
		mappings = append(mappings,
			Mapping{ReadID: 2 * i, Contig: 0, Pos: 1000 + i},
			Mapping{ReadID: 2*i + 1, Contig: 0, Pos: 1200 + i},
		)
	}
	// 10 split pairs whose contig-relative gap would fake insert 1100.
	for i := 20; i < 30; i++ {
		mappings = append(mappings,
			Mapping{ReadID: 2 * i, Contig: 0, Pos: 500},
			Mapping{ReadID: 2*i + 1, Contig: 1, Pos: 1500},
		)
	}
	win, est, ok := EstimateInsertWindow(mappings, L, 0)
	if !ok {
		t.Fatalf("estimate failed: %+v", est)
	}
	if est.SampledPairs != 20 {
		t.Fatalf("sampled %d pairs, want 20 (split pairs excluded)", est.SampledPairs)
	}
	if est.Mean < 295 || est.Mean > 305 {
		t.Fatalf("split pairs skewed the mean: %.1f", est.Mean)
	}
	if win.Max >= 1100 {
		t.Fatalf("window stretched to cover split pairs: %+v", win)
	}
}

// TestPartialInsertWindow exercises the lone-bound semantics end to end:
// one explicit bound is kept verbatim and the other estimated from the
// data; inverted combinations are rejected, before mapping for explicit
// windows and after estimation for impossible partial ones.
func TestPartialInsertWindow(t *testing.T) {
	g := testGenome(150_000)
	simPairs, err := simdata.SimulatePairs(g, simdata.Illumina100, 300, 400, 30, 61)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]ReadPair, len(simPairs))
	for i, p := range simPairs {
		pairs[i] = ReadPair{R1: p.R1.Seq, R2: p.R2.Seq}
	}
	m, err := New(g, Config{ReadLen: 100, MaxE: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Fully estimated window, the baseline.
	_, full, err := m.MapPairs(pairs, 4, InsertWindow{})
	if err != nil {
		t.Fatal(err)
	}
	if full.InsertSampledPairs == 0 {
		t.Fatal("baseline estimate drew no sample")
	}

	// Pin the minimum, estimate the maximum.
	_, st, err := m.MapPairs(pairs, 4, InsertWindow{Min: 150})
	if err != nil {
		t.Fatal(err)
	}
	if st.InsertWindowMin != 150 {
		t.Fatalf("pinned minimum not kept: %d", st.InsertWindowMin)
	}
	if st.InsertWindowMax != full.InsertWindowMax {
		t.Fatalf("estimated maximum %d differs from the full estimate's %d",
			st.InsertWindowMax, full.InsertWindowMax)
	}
	if st.InsertSampledPairs == 0 {
		t.Fatal("partial estimation recorded no sample")
	}

	// Pin the maximum, estimate the minimum.
	_, st, err = m.MapPairs(pairs, 4, InsertWindow{Max: 900})
	if err != nil {
		t.Fatal(err)
	}
	if st.InsertWindowMax != 900 || st.InsertWindowMin != full.InsertWindowMin {
		t.Fatalf("window [%d,%d], want [%d,900]", st.InsertWindowMin, st.InsertWindowMax, full.InsertWindowMin)
	}

	// A pinned minimum above the estimated maximum cannot form a window.
	if _, _, err := m.MapPairs(pairs, 4, InsertWindow{Min: full.InsertWindowMax + 1000}); err == nil {
		t.Fatal("inverted estimated window accepted")
	} else if !strings.Contains(err.Error(), "inverted") {
		t.Fatalf("error does not name the inversion: %v", err)
	}

	// Explicit inversions are rejected up front, on both pair paths.
	if _, _, err := m.MapPairs(pairs, 4, InsertWindow{Min: 400, Max: 300}); err == nil {
		t.Fatal("explicit inverted window accepted")
	}
	ch := make(chan PairRead)
	close(ch)
	if _, _, err := m.MapPairStream(ch, 4, InsertWindow{Min: 400, Max: 300}); err == nil {
		t.Fatal("explicit inverted window accepted by MapPairStream")
	}
}
