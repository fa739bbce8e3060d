package mapper

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gkgpu"
	"repro/internal/simdata"
)

// feedReads pushes a materialized read set through a channel, the way a
// decoder would.
func feedReads(seqs [][]byte) chan Read {
	ch := make(chan Read, 8)
	go func() {
		defer close(ch)
		for i, s := range seqs {
			ch <- Read{Name: fmt.Sprintf("r%d", i), Seq: s}
		}
	}()
	return ch
}

func feedPairs(pairs []ReadPair) chan PairRead {
	ch := make(chan PairRead, 8)
	go func() {
		defer close(ch)
		for i, p := range pairs {
			ch <- PairRead{Name: fmt.Sprintf("p%d", i), R1: p.R1, R2: p.R2}
		}
	}()
	return ch
}

func TestMapReadStreamMatchesMapStream(t *testing.T) {
	// The channel-fed ingestion contract: reads arriving one at a time must
	// produce byte-identical output to the same records materialized into a
	// slice and mapped by MapReads, whatever the filter mode or worker
	// count. Run with -race in CI.
	g := testGenome(150_000)
	reads, err := simdata.SimulateReads(g, simdata.Illumina100, 120, 21)
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
	cases := []struct {
		name string
		mk   func(t *testing.T) PreFilter
	}{
		{"gpu-candidate-stream", mkGPU},
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
				if gotStats.Reads != wantStats.Reads ||
					gotStats.CandidatePairs != wantStats.CandidatePairs ||
					gotStats.VerificationPairs != wantStats.VerificationPairs ||
					gotStats.RejectedPairs != wantStats.RejectedPairs ||
					gotStats.MappedReads != wantStats.MappedReads {
					t.Fatalf("channel-fed counters drifted:\nchannel %+v\nslice   %+v", gotStats, wantStats)
				}
			}
		})
	}
}

func TestMapReadStreamWrongLengthUnblocksProducer(t *testing.T) {
	// A wrong-length record mid-stream is a terminal error that names the
	// record, and the remaining input must be drained so the producer's
	// sends never block.
	g := testGenome(50_000)
	m, err := New(g, Config{ReadLen: 100, MaxE: 3, StreamWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := simdata.SimulateReads(g, simdata.Illumina100, 40, 22)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan Read) // unbuffered: a stuck consumer would deadlock this test
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(ch)
		for i, r := range reads {
			seq := r.Seq
			if i == 7 {
				seq = seq[:60] // the bad record
			}
			ch <- Read{Name: fmt.Sprintf("r%d", i), Seq: seq}
		}
	}()
	_, _, err = m.MapReadStream(ch, 3)
	if err == nil {
		t.Fatal("wrong-length record accepted")
	}
	if !strings.Contains(err.Error(), "read 7") || !strings.Contains(err.Error(), `"r7"`) {
		t.Fatalf("error does not name the record: %v", err)
	}
	<-done // producer finished all 40 sends despite the error at record 7
}

func TestMapPairStreamEarlyErrorUnblocksProducer(t *testing.T) {
	// Errors raised before the pipeline consumes anything — an invalid
	// insert window, a too-high threshold — must still honor the
	// never-block guarantee for a producer already pushing records.
	g := testGenome(50_000)
	m, err := New(g, Config{ReadLen: 100, MaxE: 3})
	if err != nil {
		t.Fatal(err)
	}
	producer := func() (chan PairRead, chan struct{}) {
		ch := make(chan PairRead) // unbuffered: an unconsumed channel deadlocks this test
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer close(ch)
			for i := 0; i < 50; i++ {
				ch <- PairRead{R1: make([]byte, 100), R2: make([]byte, 100)}
			}
		}()
		return ch, done
	}
	ch, done := producer()
	if _, _, err := m.MapPairStream(ch, 3, InsertWindow{Min: 5000, Max: 400}); err == nil {
		t.Fatal("inverted window accepted")
	}
	<-done
	ch, done = producer()
	if _, _, err := m.MapPairStream(ch, 9, InsertWindow{Min: 200, Max: 400}); err == nil {
		t.Fatal("threshold above MaxE accepted")
	}
	<-done
	rch, rdone := make(chan Read), make(chan struct{})
	go func() {
		defer close(rdone)
		defer close(rch)
		for i := 0; i < 50; i++ {
			rch <- Read{Seq: make([]byte, 100)}
		}
	}()
	if _, _, err := m.MapReadStream(rch, 9); err == nil {
		t.Fatal("threshold above MaxE accepted")
	}
	<-rdone
}

func TestMapPairStreamMatchesMapPairs(t *testing.T) {
	g := testGenome(150_000)
	simPairs, err := simdata.SimulatePairs(g, simdata.Illumina100, 60, 400, 40, 23)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]ReadPair, len(simPairs))
	for i, p := range simPairs {
		pairs[i] = ReadPair{R1: p.R1.Seq, R2: p.R2.Seq}
	}
	win := InsertWindow{Min: 240, Max: 560}
	mk := func(workers int) *Mapper {
		eng, err := gkgpu.NewEngine(gkgpu.Config{ReadLen: 100, MaxE: 5, MaxBatchPairs: 2048},
			cuda.NewUniformContext(1, cuda.GTX1080Ti()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		m, err := New(g, Config{ReadLen: 100, MaxE: 5, Filter: eng, StreamWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	want, wantStats, err := mk(0).MapPairs(pairs, 5, win)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := mk(4).MapPairStream(feedPairs(pairs), 5, win)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("channel-fed resolved %d pairs, slice path %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d drifted: %+v vs %+v", i, got[i], want[i])
		}
	}
	if gotStats.ReadPairs != wantStats.ReadPairs ||
		gotStats.ConcordantPairs != wantStats.ConcordantPairs ||
		gotStats.Reads != wantStats.Reads ||
		gotStats.InsertWindowMin != wantStats.InsertWindowMin ||
		gotStats.InsertWindowMax != wantStats.InsertWindowMax {
		t.Fatalf("paired counters drifted:\nchannel %+v\nslice   %+v", gotStats, wantStats)
	}
}

func TestEstimateInsertWindowRecoversSimulatedLibrary(t *testing.T) {
	// The estimator must recover the library geometry SimulatePairs drew
	// from — mean 400, std 40 — from nothing but single-end mappings of the
	// interleaved mates.
	g := testGenome(200_000)
	const mean, std = 400, 40
	simPairs, err := simdata.SimulatePairs(g, simdata.Illumina100, 300, mean, std, 24)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]ReadPair, len(simPairs))
	for i, p := range simPairs {
		pairs[i] = ReadPair{R1: p.R1.Seq, R2: p.R2.Seq}
	}
	m, err := New(g, Config{ReadLen: 100, MaxE: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Zero window: MapPairs estimates internally and records the estimate.
	resolved, st, err := m.MapPairs(pairs, 5, InsertWindow{})
	if err != nil {
		t.Fatal(err)
	}
	if st.InsertSampledPairs < minInsertSample {
		t.Fatalf("estimate rests on %d pairs", st.InsertSampledPairs)
	}
	if math.Abs(st.InsertMean-mean) > 15 {
		t.Fatalf("estimated mean %.1f, library mean %d", st.InsertMean, mean)
	}
	if st.InsertStd < 20 || st.InsertStd > 60 {
		t.Fatalf("estimated std %.1f, library std %d", st.InsertStd, std)
	}
	if st.InsertWindowMin < 100 || st.InsertWindowMax <= st.InsertWindowMin {
		t.Fatalf("estimated window [%d,%d] malformed", st.InsertWindowMin, st.InsertWindowMax)
	}
	if len(resolved) == 0 {
		t.Fatal("no pairs resolved under the estimated window")
	}

	// Acceptance criterion: the estimated window resolves at least as many
	// concordant pairs as the explicit true-parameter window.
	explicit, _, err := m.MapPairs(pairs, 5, InsertWindow{Min: mean - 4*std, Max: mean + 4*std})
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved) < len(explicit) {
		t.Fatalf("estimated window resolved %d pairs, explicit window %d", len(resolved), len(explicit))
	}

	// Channel-fed path with estimation agrees.
	streamed, sst, err := m.MapPairStream(feedPairs(pairs), 5, InsertWindow{})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(resolved) || sst.InsertWindowMin != st.InsertWindowMin ||
		sst.InsertWindowMax != st.InsertWindowMax {
		t.Fatalf("MapPairStream estimate drifted: %d pairs window [%d,%d] vs %d pairs window [%d,%d]",
			len(streamed), sst.InsertWindowMin, sst.InsertWindowMax,
			len(resolved), st.InsertWindowMin, st.InsertWindowMax)
	}
}

func TestEstimateInsertWindowNeedsConfidentPairs(t *testing.T) {
	// Too few confident pairs: no window, ok=false, and the zero-window
	// mapping paths surface a clear error instead of guessing.
	if _, est, ok := EstimateInsertWindow(nil, 100, 0); ok || est.SampledPairs != 0 {
		t.Fatalf("estimate from nothing: ok=%v est=%+v", ok, est)
	}
	// A pair with a multi-mapped mate is not confident.
	mappings := []Mapping{
		{ReadID: 0, Pos: 100}, {ReadID: 0, Pos: 900},
		{ReadID: 1, Pos: 400},
	}
	if _, _, ok := EstimateInsertWindow(mappings, 100, 0); ok {
		t.Fatal("multi-mapped mate treated as confident")
	}
	g := testGenome(50_000)
	m, err := New(g, Config{ReadLen: 100, MaxE: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = m.MapPairs(nil, 3, InsertWindow{})
	if err == nil || !strings.Contains(err.Error(), "estimate") {
		t.Fatalf("zero-window MapPairs over no data: %v", err)
	}
}

func TestEstimateInsertWindowTrimsOutliers(t *testing.T) {
	// A handful of wild fragments (unique mis-mappings) must not blow the
	// window open: synthetic mappings with 40 tight pairs at insert 400 and
	// 2 at 30,000.
	var mappings []Mapping
	id := 0
	add := func(pos1, pos2 int) {
		mappings = append(mappings,
			Mapping{ReadID: 2 * id, Pos: pos1},
			Mapping{ReadID: 2*id + 1, Pos: pos2})
		id++
	}
	for i := 0; i < 40; i++ {
		start := 1000 + 37*i
		add(start, start+300+i%7) // inserts 400..406
	}
	add(500, 30_400)
	add(600, 30_500)
	win, est, ok := EstimateInsertWindow(mappings, 100, 0)
	if !ok {
		t.Fatalf("estimate failed: %+v", est)
	}
	if est.SampledPairs != 40 {
		t.Fatalf("outliers kept: estimate over %d pairs", est.SampledPairs)
	}
	if win.Max > 1000 {
		t.Fatalf("window [%d,%d] blown open by outliers (mean %.1f std %.1f)",
			win.Min, win.Max, est.Mean, est.Std)
	}
	if win.Min > 400 || win.Max < 406 {
		t.Fatalf("window [%d,%d] does not cover the library", win.Min, win.Max)
	}
}
