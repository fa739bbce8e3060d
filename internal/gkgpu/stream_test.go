package gkgpu

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cuda"
)

// drainStream feeds pairs through a stream with a single producer and
// returns the results in emission order.
func drainStream(t *testing.T, eng *Engine, pairs []Pair, e int) []Result {
	t.Helper()
	in := make(chan Pair)
	out, err := eng.FilterStream(context.Background(), in, e)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, p := range pairs {
			in <- p
		}
		close(in)
	}()
	var res []Result
	for r := range out {
		res = append(res, r)
	}
	return res
}

func newStreamEngine(t *testing.T, enc EncodingActor, nDev, streamBatch int) *Engine {
	t.Helper()
	cfg := Config{ReadLen: 100, MaxE: 5, Encoding: enc,
		MaxBatchPairs: 256, StreamBatchPairs: streamBatch}
	eng, err := NewEngine(cfg, cuda.NewUniformContext(nDev, cuda.GTX1080Ti()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

func TestFilterStreamMatchesFilterPairs(t *testing.T) {
	// The stream must return byte-identical decisions to the one-shot path,
	// in input order, whatever the encoding actor, device count, or batch
	// granularity.
	rng := rand.New(rand.NewSource(21))
	pairs, _ := makePairs(rng, 700, 100, 5)
	for _, enc := range []EncodingActor{EncodeOnDevice, EncodeOnHost} {
		for _, nDev := range []int{1, 3} {
			ref := newTestEngine(t, enc, nDev)
			want, err := ref.FilterPairs(pairs, 5)
			if err != nil {
				t.Fatal(err)
			}
			eng := newStreamEngine(t, enc, nDev, 64)
			got := drainStream(t, eng, pairs, 5)
			if len(got) != len(want) {
				t.Fatalf("enc=%v nDev=%d: %d results, want %d", enc, nDev, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("enc=%v nDev=%d pair %d: stream %+v one-shot %+v",
						enc, nDev, i, got[i], want[i])
				}
			}
		}
	}
}

func TestFilterStreamConcurrentProducers(t *testing.T) {
	// Many producers feed one input channel; results must come back in the
	// order pairs entered the channel. A tee goroutine records that order so
	// the expectation is exact even though producer interleaving is not.
	rng := rand.New(rand.NewSource(22))
	const producers, perProducer = 4, 150
	shards := make([][]Pair, producers)
	for k := range shards {
		shards[k], _ = makePairs(rng, perProducer, 100, 5)
	}

	src := make(chan Pair)
	in := make(chan Pair)
	var order []Pair
	go func() {
		for p := range src {
			order = append(order, p)
			in <- p
		}
		close(in)
	}()
	var pwg sync.WaitGroup
	for k := 0; k < producers; k++ {
		pwg.Add(1)
		go func(k int) {
			defer pwg.Done()
			for _, p := range shards[k] {
				src <- p
			}
		}(k)
	}
	go func() {
		pwg.Wait()
		close(src)
	}()

	eng := newStreamEngine(t, EncodeOnHost, 2, 32)
	out, err := eng.FilterStream(context.Background(), in, 5)
	if err != nil {
		t.Fatal(err)
	}
	var got []Result
	for r := range out {
		got = append(got, r)
	}
	if len(got) != producers*perProducer {
		t.Fatalf("%d results, want %d", len(got), producers*perProducer)
	}

	ref := newTestEngine(t, EncodeOnHost, 2)
	want, err := ref.FilterPairs(order, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d: stream %+v one-shot %+v", i, got[i], want[i])
		}
	}

	st := eng.Stats()
	if st.Pairs != int64(producers*perProducer) {
		t.Fatalf("stats.Pairs = %d", st.Pairs)
	}
	if st.Accepted+st.Rejected != st.Pairs {
		t.Fatalf("Accepted(%d)+Rejected(%d) != Pairs(%d)", st.Accepted, st.Rejected, st.Pairs)
	}
	if st.Batches == 0 || st.KernelSeconds <= 0 || st.FilterSeconds <= st.KernelSeconds {
		t.Fatalf("stream stats implausible: %+v", st)
	}
}

func TestFilterStreamInvalidInputs(t *testing.T) {
	eng := newStreamEngine(t, EncodeOnHost, 1, 16)
	if _, err := eng.FilterStream(context.Background(), nil, 6); err == nil {
		t.Fatal("threshold above compiled MaxE accepted")
	}

	// A wrong-length pair keeps its slot as a defensive Undefined+Accept
	// instead of failing the whole stream.
	rng := rand.New(rand.NewSource(23))
	pairs, _ := makePairs(rng, 10, 100, 5)
	pairs[3] = Pair{Read: make([]byte, 50), Ref: pairs[3].Ref}
	res := drainStream(t, eng, pairs, 5)
	if len(res) != 10 {
		t.Fatalf("%d results, want 10", len(res))
	}
	if !res[3].Accept || !res[3].Undefined {
		t.Fatalf("wrong-length pair not passed through undefined: %+v", res[3])
	}
}

func TestFilterStreamEmpty(t *testing.T) {
	eng := newStreamEngine(t, EncodeOnDevice, 2, 16)
	res := drainStream(t, eng, nil, 5)
	if len(res) != 0 {
		t.Fatalf("empty stream produced %d results", len(res))
	}
	if st := eng.Stats(); st.Pairs != 0 {
		t.Fatalf("empty stream counted %d pairs", st.Pairs)
	}
}

func TestFilterStreamCancel(t *testing.T) {
	eng := newStreamEngine(t, EncodeOnHost, 2, 8)
	rng := rand.New(rand.NewSource(24))
	pairs, _ := makePairs(rng, 64, 100, 5)

	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan Pair)
	out, err := eng.FilterStream(ctx, in, 5)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; ; i++ {
			select {
			case in <- pairs[i%len(pairs)]:
			case <-ctx.Done():
				close(in)
				return
			}
		}
	}()
	// Take a few results, then cancel; the channel must close.
	for i := 0; i < 20; i++ {
		if _, ok := <-out; !ok {
			t.Fatal("stream closed before cancellation")
		}
	}
	cancel()
	for range out {
	}
	if st := eng.Stats(); st.Pairs == 0 {
		t.Fatal("cancelled stream committed no completed work")
	}
	if err := eng.StreamErr(); err != nil {
		t.Fatalf("cancellation is not a stream failure: %v", err)
	}
}

func TestFilterStreamSequentialReuse(t *testing.T) {
	// The same engine must support stream after stream (buffer sets are
	// returned), and a one-shot call in between.
	eng := newStreamEngine(t, EncodeOnDevice, 2, 32)
	rng := rand.New(rand.NewSource(25))
	pairs, _ := makePairs(rng, 200, 100, 5)
	first := drainStream(t, eng, pairs, 5)
	mid, err := eng.FilterPairs(pairs, 5)
	if err != nil {
		t.Fatal(err)
	}
	second := drainStream(t, eng, pairs, 5)
	for i := range first {
		if first[i] != second[i] || first[i] != mid[i] {
			t.Fatalf("pair %d drifted across runs: %+v / %+v / %+v", i, first[i], mid[i], second[i])
		}
	}
	if st := eng.Stats(); st.Pairs != int64(3*len(pairs)) {
		t.Fatalf("stats.Pairs = %d after three runs", st.Pairs)
	}
}

func TestStreamBeatsOneShotModelled(t *testing.T) {
	// Acceptance: pipelined host-encoded filtering must beat the one-shot
	// path on modelled FilterSeconds for >= 2 devices — the whole point of
	// hiding host work behind kernel execution. Zero the per-launch and
	// per-batch overheads (as TestEngineMultiGPUKernelScaling does: at paper
	// scale compute dominates the launch cost) so the comparison isolates
	// the overlap model and holds under ANY placement of batches on devices
	// — the win must not depend on how the shared dispatch queue happened
	// to balance.
	model := cuda.DefaultCostModel()
	model.PerLaunchSeconds = 0
	model.PerBatchHostSeconds = 0
	rng := rand.New(rand.NewSource(26))
	pairs, _ := makePairs(rng, 12000, 100, 5)
	for _, nDev := range []int{2, 4} {
		mk := func() *Engine {
			cfg := Config{ReadLen: 100, MaxE: 5, Encoding: EncodeOnHost,
				MaxBatchPairs: 2048, StreamBatchPairs: 2048, Model: model}
			eng, err := NewEngine(cfg, cuda.NewUniformContext(nDev, cuda.GTX1080Ti()))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(eng.Close)
			return eng
		}
		oneShot := mk()
		if _, err := oneShot.FilterPairs(pairs, 5); err != nil {
			t.Fatal(err)
		}
		stream := mk()
		// Pre-filled buffered channel: a saturated producer, so dispatch
		// granularity is deterministic whatever the host's scheduler does.
		in := make(chan Pair, len(pairs))
		for _, p := range pairs {
			in <- p
		}
		close(in)
		out, err := stream.FilterStream(context.Background(), in, 5)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for range out {
			n++
		}
		if n != len(pairs) {
			t.Fatalf("nDev=%d: stream returned %d results, want %d", nDev, n, len(pairs))
		}
		os, ss := oneShot.Stats().FilterSeconds, stream.Stats().FilterSeconds
		if ss >= os {
			t.Errorf("nDev=%d: stream FilterSeconds %.6f not below one-shot %.6f", nDev, ss, os)
		}
	}
}

func TestRoundSharesWeighted(t *testing.T) {
	// A mixed Pascal/Kepler context must hand the slower Kepler card fewer
	// pairs, in proportion to the modelled filtration rates.
	cfg := Config{ReadLen: 100, MaxE: 5, Encoding: EncodeOnHost, MaxBatchPairs: 4096}
	eng, err := NewEngine(cfg, cuda.NewContext(cuda.GTX1080Ti(), cuda.TeslaK20X()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	w := eng.workload(1000, 5)
	shares := eng.roundShares(1000, w)
	if shares[0]+shares[1] != 1000 {
		t.Fatalf("shares %v do not sum to 1000", shares)
	}
	if shares[0] <= shares[1] {
		t.Fatalf("Pascal share %d not above Kepler share %d", shares[0], shares[1])
	}
	// Homogeneous contexts keep the paper's equal split (within rounding).
	eng2, err := NewEngine(cfg, cuda.NewUniformContext(3, cuda.GTX1080Ti()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	eq := eng2.roundShares(700, eng2.workload(700, 5))
	for _, s := range eq {
		if s < 233 || s > 234 {
			t.Fatalf("homogeneous shares %v not near-equal", eq)
		}
	}
	// Capacity caps are respected and overflow moves to devices with room.
	capped := eng2.roundShares(3*4096, eng2.workload(3*4096, 5))
	for i, s := range capped {
		if s != 4096 {
			t.Fatalf("full round share %d = %d, want capacity 4096", i, s)
		}
	}
}

func TestHeterogeneousKernelClock(t *testing.T) {
	// The round's kernel clock must be the max across the actual device
	// specs: a mixed Pascal/Kepler pair sits strictly between the
	// homogeneous Pascal pair and the homogeneous Kepler pair.
	rng := rand.New(rand.NewSource(27))
	pairs, _ := makePairs(rng, 1024, 100, 5)
	kt := func(specs ...cuda.DeviceSpec) float64 {
		cfg := Config{ReadLen: 100, MaxE: 5, Encoding: EncodeOnHost, MaxBatchPairs: 2048}
		eng, err := NewEngine(cfg, cuda.NewContext(specs...))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if _, err := eng.FilterPairs(pairs, 5); err != nil {
			t.Fatal(err)
		}
		return eng.Stats().KernelSeconds
	}
	pp := kt(cuda.GTX1080Ti(), cuda.GTX1080Ti())
	pk := kt(cuda.GTX1080Ti(), cuda.TeslaK20X())
	kk := kt(cuda.TeslaK20X(), cuda.TeslaK20X())
	if !(pp < pk && pk < kk) {
		t.Fatalf("mixed-context kernel clock out of order: pascal %.3g mixed %.3g kepler %.3g", pp, pk, kk)
	}
}

func TestClosedEngineFailsFast(t *testing.T) {
	cfg := Config{ReadLen: 100, MaxE: 5, MaxBatchPairs: 64}
	eng, err := NewEngine(cfg, cuda.NewUniformContext(1, cuda.GTX1080Ti()))
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if _, err := eng.FilterPairs(make([]Pair, 0), 5); err == nil {
		t.Fatal("FilterPairs on closed engine accepted")
	}
	if err := eng.SetReference(make([]byte, 200)); err == nil {
		t.Fatal("SetReference on closed engine accepted")
	}
	in := make(chan Pair)
	close(in)
	out, err := eng.FilterStream(context.Background(), in, 5)
	if err != nil {
		t.Fatal(err)
	}
	for range out {
		t.Fatal("closed engine emitted a result")
	}
	if err := eng.StreamErr(); err == nil {
		t.Fatal("stream on closed engine reported no error")
	}
}

func TestFilterPairsStatsUnchangedOnError(t *testing.T) {
	// A failed call must leave the accumulated stats untouched.
	eng := newTestEngine(t, EncodeOnHost, 2)
	rng := rand.New(rand.NewSource(28))
	pairs, _ := makePairs(rng, 300, 100, 5)
	if _, err := eng.FilterPairs(pairs, 5); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	if _, err := eng.FilterPairs([]Pair{{Read: make([]byte, 10), Ref: make([]byte, 100)}}, 5); err == nil {
		t.Fatal("bad pair accepted")
	}
	if _, err := eng.FilterPairs(pairs, 99); err == nil {
		t.Fatal("bad threshold accepted")
	}
	if after := eng.Stats(); after != before {
		t.Fatalf("failed calls mutated stats:\nbefore %+v\nafter  %+v", before, after)
	}
}
