package mapper

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cuda"
	"repro/internal/dna"
	"repro/internal/gkgpu"
	"repro/internal/simdata"
)

// mustEqualMappings asserts two mapping lists are byte-identical: same
// mappings, same order.
func mustEqualMappings(t *testing.T, got, want []Mapping, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d mappings, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: mapping %d differs: %+v vs %+v", label, i, got[i], want[i])
		}
	}
}

// pairsOnly hides every method of a filter but FilterPairs, so the mapper
// takes its materialized-pair path.
type pairsOnly struct{ f PreFilter }

func (p pairsOnly) FilterPairs(pairs []gkgpu.Pair, e int) ([]gkgpu.Result, error) {
	return p.f.FilterPairs(pairs, e)
}

func TestMapStreamMatchesMapReads(t *testing.T) {
	// The streaming contract: whatever the worker count or filter mode,
	// the channel-fed MapReadStream must produce byte-identical output and
	// decision counters to the one-shot MapReads. Run with -race in CI: both
	// fan seeding and verification out over the worker pool.
	g := testGenome(150_000)
	reads, err := simdata.SimulateReads(g, simdata.Illumina100, 120, 11)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}

	mkGPU := func(t *testing.T) PreFilter {
		eng, err := gkgpu.NewEngine(gkgpu.Config{ReadLen: 100, MaxE: 5, MaxBatchPairs: 2048},
			cuda.NewUniformContext(2, cuda.GTX1080Ti()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		return eng
	}
	mkCPU := func(t *testing.T) PreFilter {
		cpu, err := gkgpu.NewCPUEngine(100, 5, 4, gkgpu.Setup1(), cuda.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		return pairsOnly{cpu}
	}
	cases := []struct {
		name string
		mk   func(t *testing.T) PreFilter
	}{
		{"gpu-candidate-stream", mkGPU},
		{"cpu-inline", mkCPU},
		{"no-filter", func(t *testing.T) PreFilter { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, err := New(g, Config{ReadLen: 100, MaxE: 5, BothStrands: true, Filter: tc.mk(t)})
			if err != nil {
				t.Fatal(err)
			}
			want, wantStats, err := base.MapReads(seqs, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 8} {
				strm, err := New(g, Config{ReadLen: 100, MaxE: 5, BothStrands: true,
					Filter: tc.mk(t), StreamWorkers: workers})
				if err != nil {
					t.Fatal(err)
				}
				got, gotStats, err := strm.MapReadStream(feedReads(seqs), 5)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualMappings(t, got, want, tc.name)
				if gotStats.CandidatePairs != wantStats.CandidatePairs ||
					gotStats.VerificationPairs != wantStats.VerificationPairs ||
					gotStats.RejectedPairs != wantStats.RejectedPairs ||
					gotStats.MappedReads != wantStats.MappedReads {
					t.Fatalf("stream counters drifted:\nstream  %+v\noneshot %+v", gotStats, wantStats)
				}
				if gotStats.RejectedPairs+gotStats.VerificationPairs != gotStats.CandidatePairs {
					t.Fatal("candidate accounting does not add up")
				}
			}
		})
	}
}

func TestMapStreamTracebackMatchesMapReads(t *testing.T) {
	g := testGenome(80_000)
	reads, err := simdata.SimulateReads(g, simdata.Illumina100, 50, 12)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	base, err := New(g, Config{ReadLen: 100, MaxE: 4, Traceback: true})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := base.MapReads(seqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	strm, err := New(g, Config{ReadLen: 100, MaxE: 4, Traceback: true, StreamWorkers: 6})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := strm.MapReadStream(feedReads(seqs), 4)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualMappings(t, got, want, "traceback")
	for _, mp := range got {
		if mp.CIGAR == "" {
			t.Fatalf("streamed mapping without CIGAR: %+v", mp)
		}
	}
}

func TestMapStreamValidation(t *testing.T) {
	g := testGenome(50_000)
	m, err := New(g, Config{ReadLen: 100, MaxE: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.MapReadStream(feedReads([][]byte{make([]byte, 40)}), 3); err == nil {
		t.Fatal("wrong-length read accepted")
	}
	if _, _, err := m.MapReadStream(feedReads(nil), 4); err == nil {
		t.Fatal("threshold above MaxE accepted")
	}
	// Empty input is a valid, empty run.
	mappings, st, err := m.MapReadStream(feedReads(nil), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(mappings) != 0 || st.Reads != 0 {
		t.Fatalf("empty stream mapped something: %d mappings, %+v", len(mappings), st)
	}
}

func TestMultiBatchIdentity(t *testing.T) {
	// A 7-read batch splits mate pairs across batches and leaves ragged
	// final batches. Batching is a schedule, not a decision input: the
	// channel-fed entry points must equal the slice-fed ones, and both must
	// equal a single-batch run, on every filter path, with and without
	// both-strand mapping, at any pool width.
	g := testGenome(150_000)
	reads, err := simdata.SimulateReads(g, simdata.Illumina100, 61, 31)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	simPairs, err := simdata.SimulatePairs(g, simdata.Illumina100, 25, 400, 40, 32)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]ReadPair, len(simPairs))
	for i, p := range simPairs {
		pairs[i] = ReadPair{R1: p.R1.Seq, R2: p.R2.Seq}
	}
	win := InsertWindow{Min: 240, Max: 560}

	gpu, err := gkgpu.NewEngine(gkgpu.Config{ReadLen: 100, MaxE: 5, MaxBatchPairs: 2048},
		cuda.NewUniformContext(2, cuda.GTX1080Ti()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gpu.Close)
	cpu, err := gkgpu.NewCPUEngine(100, 5, 3, gkgpu.Setup1(), cuda.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	filters := []struct {
		name string
		f    PreFilter
	}{{"gpu-candidates", gpu}, {"cpu-pairs", pairsOnly{cpu}}, {"none", nil}}

	sameCounters := func(t *testing.T, got, want Stats, label string) {
		t.Helper()
		if got.Reads != want.Reads || got.CandidatePairs != want.CandidatePairs ||
			got.RejectedPairs != want.RejectedPairs || got.UndefinedPairs != want.UndefinedPairs ||
			got.VerificationPairs != want.VerificationPairs || got.Mappings != want.Mappings ||
			got.MappedReads != want.MappedReads || got.ConcordantPairs != want.ConcordantPairs {
			t.Fatalf("%s: counters drifted:\ngot  %+v\nwant %+v", label, got, want)
		}
	}
	for _, fc := range filters {
		for _, both := range []bool{false, true} {
			cfg := Config{ReadLen: 100, MaxE: 5, BothStrands: both, Filter: fc.f, MaxReadsPerBatch: 1 << 20}
			one, err := New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, wantSt, err := one.MapReads(seqs, 5)
			if err != nil {
				t.Fatal(err)
			}
			wantP, wantPSt, err := one.MapPairs(pairs, 5, win)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 7} {
				label := fmt.Sprintf("%s both=%v workers=%d", fc.name, both, workers)
				cfg.MaxReadsPerBatch, cfg.StreamWorkers = 7, workers
				m, err := New(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, st, err := m.MapReads(seqs, 5)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualMappings(t, got, want, label+" MapReads")
				sameCounters(t, st, wantSt, label+" MapReads")
				got, st, err = m.MapReadStream(feedReads(seqs), 5)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualMappings(t, got, want, label+" MapReadStream")
				sameCounters(t, st, wantSt, label+" MapReadStream")

				for _, paired := range []func() ([]PairMapping, Stats, error){
					func() ([]PairMapping, Stats, error) { return m.MapPairs(pairs, 5, win) },
					func() ([]PairMapping, Stats, error) { return m.MapPairStream(feedPairs(pairs), 5, win) },
				} {
					gotP, pst, err := paired()
					if err != nil {
						t.Fatal(err)
					}
					if len(gotP) != len(wantP) {
						t.Fatalf("%s: %d concordant pairs, single batch %d", label, len(gotP), len(wantP))
					}
					for i := range gotP {
						if gotP[i] != wantP[i] {
							t.Fatalf("%s: pair %d drifted: %+v vs %+v", label, i, gotP[i], wantP[i])
						}
					}
					sameCounters(t, pst, wantPSt, label+" paired")
				}
			}
		}
	}
}

func TestMapPairsResolvesConcordantPairs(t *testing.T) {
	g := testGenome(120_000)
	rng := rand.New(rand.NewSource(14))
	const L, insert = 100, 350
	var pairs []ReadPair
	var truePos []int
	for i := 0; i < 30; i++ {
		pos := rng.Intn(len(g) - insert)
		frag := g[pos : pos+insert]
		if dna.HasN(frag) {
			continue
		}
		r1 := dna.MutateSubstitutions(rng, frag[:L], 2)
		r2 := dna.ReverseComplement(dna.MutateSubstitutions(rng, frag[insert-L:], 2))
		pairs = append(pairs, ReadPair{R1: r1, R2: r2})
		truePos = append(truePos, pos)
	}

	eng, err := gkgpu.NewEngine(gkgpu.Config{ReadLen: L, MaxE: 4, MaxBatchPairs: 2048},
		cuda.NewUniformContext(1, cuda.GTX1080Ti()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	m, err := New(g, Config{ReadLen: L, MaxE: 4, Filter: eng, StreamWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	resolved, st, err := m.MapPairs(pairs, 4, InsertWindow{Min: 200, Max: 500})
	if err != nil {
		t.Fatal(err)
	}
	if st.ReadPairs != int64(len(pairs)) {
		t.Fatalf("ReadPairs = %d, want %d", st.ReadPairs, len(pairs))
	}
	if st.ConcordantPairs != int64(len(resolved)) {
		t.Fatalf("ConcordantPairs = %d but %d resolved", st.ConcordantPairs, len(resolved))
	}
	if len(resolved) < len(pairs)-2 {
		t.Fatalf("only %d/%d pairs concordant", len(resolved), len(pairs))
	}
	byPair := map[int]PairMapping{}
	for _, pm := range resolved {
		byPair[pm.PairID] = pm
	}
	for i := range pairs {
		pm, ok := byPair[i]
		if !ok {
			continue
		}
		if pm.Insert < 200 || pm.Insert > 500 {
			t.Fatalf("pair %d insert %d outside window", i, pm.Insert)
		}
		if abs(pm.Mate1.Pos-truePos[i]) > 4 {
			t.Errorf("pair %d mate1 at %d, fragment at %d", i, pm.Mate1.Pos, truePos[i])
		}
		if abs(pm.Mate2.Pos-(truePos[i]+insert-L)) > 4 {
			t.Errorf("pair %d mate2 at %d, want near %d", i, pm.Mate2.Pos, truePos[i]+insert-L)
		}
		if pm.Mate1.Reverse != pm.Mate2.Reverse {
			t.Errorf("pair %d resolved with incompatible orientations", i)
		}
	}
}

func TestMapPairsInsertWindowExcludes(t *testing.T) {
	g := testGenome(60_000)
	rng := rand.New(rand.NewSource(15))
	const L, insert = 100, 400
	pos := 20_000
	frag := g[pos : pos+insert]
	for dna.HasN(frag) {
		pos += insert
		frag = g[pos : pos+insert]
	}
	pair := ReadPair{
		R1: dna.MutateSubstitutions(rng, frag[:L], 1),
		R2: dna.ReverseComplement(dna.MutateSubstitutions(rng, frag[insert-L:], 1)),
	}
	m, err := New(g, Config{ReadLen: L, MaxE: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A window that cannot contain the true 400bp fragment.
	resolved, st, err := m.MapPairs([]ReadPair{pair}, 3, InsertWindow{Min: 150, Max: 250})
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved) != 0 || st.ConcordantPairs != 0 {
		t.Fatalf("discordant pair resolved: %+v", resolved)
	}
	// The right window finds it.
	resolved, _, err = m.MapPairs([]ReadPair{pair}, 3, InsertWindow{Min: 300, Max: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved) != 1 || resolved[0].Insert != insert {
		t.Fatalf("true pair not resolved: %+v", resolved)
	}
	// Window validation.
	if _, _, err := m.MapPairs(nil, 3, InsertWindow{Min: 300, Max: 200}); err == nil {
		t.Fatal("inverted window accepted")
	}
	if _, _, err := m.MapPairs(nil, 3, InsertWindow{Min: 50, Max: 200}); err == nil {
		t.Fatal("window below read length accepted")
	}
}

func TestMapPairsRejectsEvertedArrangement(t *testing.T) {
	// FR concordance is order as well as orientation: if R1's window lands
	// to the RIGHT of R2's with both mapping forward, the mates point
	// outward (an everted arrangement) and the pair is discordant even when
	// the outer distance fits the window.
	g := testGenome(60_000)
	rng := rand.New(rand.NewSource(16))
	const L = 100
	pos := 30_000
	for dna.HasN(g[pos : pos+400]) {
		pos += 400
	}
	everted := ReadPair{
		R1: dna.MutateSubstitutions(rng, g[pos+300:pos+400], 1),                  // right window, forward
		R2: dna.ReverseComplement(dna.MutateSubstitutions(rng, g[pos:pos+L], 1)), // left window
	}
	m, err := New(g, Config{ReadLen: L, MaxE: 3})
	if err != nil {
		t.Fatal(err)
	}
	resolved, st, err := m.MapPairs([]ReadPair{everted}, 3, InsertWindow{Min: 300, Max: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved) != 0 || st.ConcordantPairs != 0 {
		t.Fatalf("everted pair resolved as concordant: %+v", resolved)
	}
	// The properly ordered pair over the same windows is concordant.
	proper := ReadPair{
		R1: dna.MutateSubstitutions(rng, g[pos:pos+L], 1),
		R2: dna.ReverseComplement(dna.MutateSubstitutions(rng, g[pos+300:pos+400], 1)),
	}
	resolved, _, err = m.MapPairs([]ReadPair{proper}, 3, InsertWindow{Min: 300, Max: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved) != 1 {
		t.Fatalf("properly ordered pair not resolved: %+v", resolved)
	}
}
