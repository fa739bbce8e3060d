package gkgpu

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cuda"
	"repro/internal/dna"
)

// newFaultStreamEngine builds a multi-device stream engine and hands the
// caller its cuda devices for fault-plan attachment.
func newFaultStreamEngine(t *testing.T, nDev, streamBatch int, pol FaultPolicy) (*Engine, *cuda.Context) {
	t.Helper()
	ctx := cuda.NewUniformContext(nDev, cuda.GTX1080Ti())
	cfg := Config{ReadLen: 100, MaxE: 5, Encoding: EncodeOnHost,
		MaxBatchPairs: 256, StreamBatchPairs: streamBatch, Fault: pol}
	eng, err := NewEngine(cfg, ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng, ctx
}

// decisionStats projects Stats onto the fields the fault-tolerance contract
// promises bit-identical under faults. Batches is excluded deliberately:
// batch segmentation was timing-dependent before fault injection existed
// (the dispatcher's linger timer may flush a partial batch), and clocks and
// retry counters are exactly what a faulty run is allowed to change.
type decisionStats struct {
	pairs, accepted, rejected, undefined int64
}

func decisionsOf(s Stats) decisionStats {
	return decisionStats{s.Pairs, s.Accepted, s.Rejected, s.Undefined}
}

func requireIdentical(t *testing.T, want, got []Result, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d (loss or duplication)", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: result %d = %+v, want %+v (divergence or reorder)", label, i, got[i], want[i])
		}
	}
}

func TestStreamRetriesTransientFault(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pairs, _ := makePairs(rng, 600, 100, 5)

	clean := newStreamEngine(t, EncodeOnHost, 1, 64)
	want := drainStream(t, clean, pairs, 5)

	eng, cctx := newFaultStreamEngine(t, 1, 64, FaultPolicy{Backoff: 50 * time.Microsecond})
	cctx.Device(0).InjectFaults(cuda.NewFaultPlan(3).FailNth(cuda.OpLaunch, 2).FailNth(cuda.OpLaunch, 5))
	got := drainStream(t, eng, pairs, 5)
	if err := eng.StreamErr(); err != nil {
		t.Fatalf("transient faults became terminal: %v", err)
	}
	requireIdentical(t, want, got, "retried stream")

	s := eng.Stats()
	if s.Retries == 0 {
		t.Fatal("transient faults recovered without counting retries")
	}
	if s.DevicesLost != 0 || s.Redispatches != 0 {
		t.Fatalf("transient faults quarantined a device: %+v", s)
	}
	if d := decisionsOf(s); d != decisionsOf(clean.Stats()) {
		t.Fatalf("decision stats diverged: %+v vs %+v", d, decisionsOf(clean.Stats()))
	}
}

func TestStreamRedispatchOnDeviceDeath(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pairs, _ := makePairs(rng, 2000, 100, 5)

	clean := newStreamEngine(t, EncodeOnHost, 2, 64)
	want := drainStream(t, clean, pairs, 5)

	eng, cctx := newFaultStreamEngine(t, 2, 64, FaultPolicy{Backoff: 50 * time.Microsecond})
	cctx.Device(1).InjectFaults(cuda.NewFaultPlan(5).DieAtLaunch(3))
	got := drainStream(t, eng, pairs, 5)
	if err := eng.StreamErr(); err != nil {
		t.Fatalf("device death with a survivor became terminal: %v", err)
	}
	requireIdentical(t, want, got, "redispatched stream")

	s := eng.Stats()
	if s.DevicesLost != 1 {
		t.Fatalf("DevicesLost = %d, want 1", s.DevicesLost)
	}
	if s.Redispatches == 0 {
		t.Fatal("device died mid-stream but nothing redispatched")
	}
	if q := eng.QuarantinedDevices(); len(q) != 1 || q[0] != 1 {
		t.Fatalf("QuarantinedDevices = %v, want [1]", q)
	}
	if d := decisionsOf(s); d != decisionsOf(clean.Stats()) {
		t.Fatalf("decision stats diverged: %+v vs %+v", d, decisionsOf(clean.Stats()))
	}

	// The quarantine outlives the stream: the next stream runs entirely on
	// the survivor and still answers everything.
	again := drainStream(t, eng, pairs, 5)
	if err := eng.StreamErr(); err != nil {
		t.Fatalf("stream on quarantined engine: %v", err)
	}
	requireIdentical(t, want, again, "post-quarantine stream")
}

func TestStreamChaosIdentityUnderSeededFaults(t *testing.T) {
	// The tentpole identity sweep in miniature (the harness chaos experiment
	// runs the full grid): seeded per-op fault rates on every device of a
	// multi-device context, plus one mid-stream death, must not change a
	// single decision, the order, or the decision stats.
	rng := rand.New(rand.NewSource(73))
	pairs, _ := makePairs(rng, 3000, 100, 5)

	clean := newStreamEngine(t, EncodeOnHost, 3, 64)
	want := drainStream(t, clean, pairs, 5)
	wantDec := decisionsOf(clean.Stats())

	for _, seed := range []int64{1, 2, 3} {
		eng, cctx := newFaultStreamEngine(t, 3, 64, FaultPolicy{Backoff: 20 * time.Microsecond})
		for i := 0; i < 3; i++ {
			plan := cuda.NewFaultPlan(seed+int64(i)).
				WithRate(cuda.OpLaunch, 0.10).
				WithRate(cuda.OpTransfer, 0.05)
			if i == 2 {
				plan.DieAtLaunch(7)
			}
			cctx.Device(i).InjectFaults(plan)
		}
		got := drainStream(t, eng, pairs, 5)
		if err := eng.StreamErr(); err != nil {
			t.Fatalf("seed %d: chaos became terminal with survivors: %v", seed, err)
		}
		requireIdentical(t, want, got, "chaos stream")
		if d := decisionsOf(eng.Stats()); d != wantDec {
			t.Fatalf("seed %d: decision stats diverged: %+v vs %+v", seed, d, wantDec)
		}
	}
}

func TestStreamAllDevicesDeadDrainsProducer(t *testing.T) {
	// Satellite: terminal failure must (a) surface the first classified
	// fault through StreamErr under ErrStreamAborted, and (b) fully drain a
	// producer that knows nothing about the failure — plain blocking sends,
	// no ctx — instead of deadlocking it.
	rng := rand.New(rand.NewSource(74))
	pairs, _ := makePairs(rng, 4000, 100, 5)

	eng, cctx := newFaultStreamEngine(t, 2, 32, FaultPolicy{Backoff: 20 * time.Microsecond})
	cctx.Device(0).InjectFaults(cuda.NewFaultPlan(1).DieAtLaunch(2))
	cctx.Device(1).InjectFaults(cuda.NewFaultPlan(2).DieAtLaunch(3))

	in := make(chan Pair)
	out, err := eng.FilterStream(context.Background(), in, 5)
	if err != nil {
		t.Fatal(err)
	}
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		for _, p := range pairs {
			in <- p // deliberately no select: the stream must drain us
		}
		close(in)
	}()
	for range out {
	}
	select {
	case <-produced:
	case <-time.After(30 * time.Second):
		t.Fatal("producer deadlocked after terminal stream failure")
	}

	serr := eng.StreamErr()
	if serr == nil {
		t.Fatal("all devices dead but StreamErr is nil")
	}
	if !errors.Is(serr, ErrStreamAborted) || !errors.Is(serr, ErrDeviceLost) {
		t.Fatalf("terminal error lacks taxonomy: %v", serr)
	}
	if !errors.Is(serr, cuda.ErrDeviceLost) {
		t.Fatalf("terminal error lost its cuda cause: %v", serr)
	}
	var df *DeviceFault
	if !errors.As(serr, &df) {
		t.Fatalf("StreamErr does not expose the first classified DeviceFault: %v", serr)
	}
	if df.Kind != ErrDeviceLost {
		t.Fatalf("first classified fault kind = %v, want ErrDeviceLost", df.Kind)
	}
	if s := eng.Stats(); s.DevicesLost != 2 {
		t.Fatalf("DevicesLost = %d, want 2", s.DevicesLost)
	}

	// A fresh stream on the fully quarantined engine fails fast with the
	// taxonomy error and still drains its input.
	in2 := make(chan Pair, 4)
	in2 <- pairs[0]
	close(in2)
	out2, err := eng.FilterStream(context.Background(), in2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for range out2 {
		t.Fatal("quarantined engine emitted a result")
	}
	if err := eng.StreamErr(); !errors.Is(err, ErrDeviceLost) || !errors.Is(err, ErrStreamAborted) {
		t.Fatalf("quarantined-engine stream error: %v", err)
	}
}

func TestStreamTransferFaultTerminalWithoutRetry(t *testing.T) {
	// With retries disabled, an async transfer fault surfaces at the next
	// launch and classifies as ErrTransfer.
	rng := rand.New(rand.NewSource(75))
	pairs, _ := makePairs(rng, 300, 100, 5)

	eng, cctx := newFaultStreamEngine(t, 1, 64, FaultPolicy{MaxAttempts: 1})
	cctx.Device(0).InjectFaults(cuda.NewFaultPlan(1).FailNth(cuda.OpTransfer, 1))
	in := make(chan Pair)
	out, err := eng.FilterStream(context.Background(), in, 5)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, p := range pairs {
			in <- p
		}
		close(in)
	}()
	for range out {
	}
	serr := eng.StreamErr()
	if !errors.Is(serr, ErrStreamAborted) || !errors.Is(serr, ErrTransfer) {
		t.Fatalf("transfer fault classification: %v", serr)
	}
}

func TestStreamDeadlineRespectedMidBatch(t *testing.T) {
	// A device stuck in a retry loop must not pin the stream past its
	// deadline: the backoff wait carries a ctx arm.
	rng := rand.New(rand.NewSource(76))
	pairs, _ := makePairs(rng, 500, 100, 5)

	eng, cctx := newFaultStreamEngine(t, 1, 32,
		FaultPolicy{MaxAttempts: 1 << 20, Backoff: 50 * time.Millisecond, MaxBackoff: time.Second})
	cctx.Device(0).InjectFaults(cuda.NewFaultPlan(1).WithRate(cuda.OpLaunch, 1.0))

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	in := make(chan Pair)
	out, err := eng.FilterStream(ctx, in, 5)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(in)
		for _, p := range pairs {
			select {
			case in <- p:
			case <-ctx.Done():
				return
			}
		}
	}()
	start := time.Now()
	for range out {
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("deadline ignored: stream closed after %v", took)
	}
}

func TestFilterPairsClassifiesAndQuarantines(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pairs, _ := makePairs(rng, 400, 100, 5)

	ctx := cuda.NewUniformContext(2, cuda.GTX1080Ti())
	eng, err := NewEngine(Config{ReadLen: 100, MaxE: 5, MaxBatchPairs: 256}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	want, err := eng.FilterPairs(pairs, 5)
	if err != nil {
		t.Fatal(err)
	}

	// A death mid-call re-splits the dead device's share over the survivor:
	// the call completes with identical decisions.
	ctx.Device(0).InjectFaults(cuda.NewFaultPlan(1).DieAtLaunch(1))
	got, err := eng.FilterPairs(pairs, 5)
	if err != nil {
		t.Fatalf("death with a survivor failed the call: %v", err)
	}
	requireIdentical(t, want, got, "mid-call death FilterPairs")
	if q := eng.QuarantinedDevices(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("QuarantinedDevices = %v, want [0]", q)
	}
	if s := eng.Stats(); s.DevicesLost != 1 || s.Redispatches != 1 {
		t.Fatalf("DevicesLost/Redispatches = %d/%d, want 1/1", s.DevicesLost, s.Redispatches)
	}
	// The next call re-weights onto the survivor and succeeds identically.
	got, err = eng.FilterPairs(pairs, 5)
	if err != nil {
		t.Fatalf("post-quarantine FilterPairs: %v", err)
	}
	requireIdentical(t, want, got, "post-quarantine FilterPairs")

	// With no survivor the call fails with the classified fault.
	ctx.Device(1).InjectFaults(cuda.NewFaultPlan(2).Kill())
	_, err = eng.FilterPairs(pairs, 5)
	var df *DeviceFault
	if !errors.Is(err, ErrDeviceLost) || !errors.As(err, &df) || df.Device != 1 {
		t.Fatalf("last death not classified as device 1's DeviceFault: %v", err)
	}
	if _, err := eng.FilterPairs(pairs, 5); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("all-quarantined FilterPairs: %v", err)
	}
}

func TestNewEngineAllocFaultClassified(t *testing.T) {
	ctx := cuda.NewUniformContext(1, cuda.GTX1080Ti())
	ctx.Device(0).InjectFaults(cuda.NewFaultPlan(1).FailNth(cuda.OpAlloc, 1))
	if _, err := NewEngine(Config{ReadLen: 100, MaxE: 5, MaxBatchPairs: 64}, ctx); !errors.Is(err, ErrAlloc) {
		t.Fatalf("NewEngine alloc fault: %v, want ErrAlloc", err)
	}
}

func TestSetReferenceAllocFaultClassified(t *testing.T) {
	ctx := cuda.NewUniformContext(1, cuda.GTX1080Ti())
	eng, err := NewEngine(Config{ReadLen: 100, MaxE: 5, MaxBatchPairs: 64}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// The engine's own buffer sets allocate 8 buffers; fail the 9th — the
	// reference load.
	ctx.Device(0).InjectFaults(cuda.NewFaultPlan(1).FailNth(cuda.OpAlloc, 1))
	if err := eng.SetReference(make([]byte, 4096)); !errors.Is(err, ErrAlloc) {
		t.Fatalf("SetReference alloc fault: %v, want ErrAlloc", err)
	}
}

func TestFilterCandidatesSurvivesDeviceDeath(t *testing.T) {
	// The batch path keeps the stream's fault contract: transient launch
	// faults retry in place, and a device dying mid-call (in its second
	// round) has its share re-split over the survivor within the same call,
	// into the same result slots.
	rng := rand.New(rand.NewSource(78))
	refSeq := dna.RandomSeq(rng, 8192)
	refSeq[4000] = 'N'

	build := func(pol FaultPolicy) (*Engine, *cuda.Context) {
		ctx := cuda.NewUniformContext(2, cuda.GTX1080Ti())
		eng, err := NewEngine(Config{ReadLen: 100, MaxE: 5, Encoding: EncodeOnHost,
			MaxBatchPairs: 256, Fault: pol}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		if err := eng.SetReference(refSeq); err != nil {
			t.Fatal(err)
		}
		return eng, ctx
	}
	var reads [][]byte
	var cands []Candidate
	for i := 0; i < 400; i++ {
		pos := rng.Intn(len(refSeq) - 100)
		reads = append(reads, dna.MutateSubstitutions(rng, refSeq[pos:pos+100], rng.Intn(10)))
		for _, p := range []int{pos, rng.Intn(len(refSeq) - 100)} {
			cands = append(cands, Candidate{ReadID: int64(i), Pos: int64(p)})
		}
	}

	clean, _ := build(FaultPolicy{})
	want, err := clean.FilterCandidates(reads, cands, 5)
	if err != nil {
		t.Fatal(err)
	}

	eng, cctx := build(FaultPolicy{Backoff: 20 * time.Microsecond})
	cctx.Device(0).InjectFaults(cuda.NewFaultPlan(4).DieAtLaunch(2))
	cctx.Device(1).InjectFaults(cuda.NewFaultPlan(5).FailNth(cuda.OpLaunch, 1).FailNth(cuda.OpLaunch, 3))
	got, err := eng.FilterCandidates(reads, cands, 5)
	if err != nil {
		t.Fatalf("device death with a survivor failed the call: %v", err)
	}
	requireIdentical(t, want, got, "faulted FilterCandidates")
	s := eng.Stats()
	if s.Retries == 0 {
		t.Fatal("transient faults recovered without counting retries")
	}
	if s.DevicesLost != 1 {
		t.Fatalf("DevicesLost = %d, want 1", s.DevicesLost)
	}
	if s.Redispatches == 0 {
		t.Fatal("device died mid-call but nothing was re-split")
	}
	if q := eng.QuarantinedDevices(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("QuarantinedDevices = %v, want [0]", q)
	}
	if d := decisionsOf(s); d != decisionsOf(clean.Stats()) {
		t.Fatalf("decision stats diverged: %+v vs %+v", d, decisionsOf(clean.Stats()))
	}

	// The next call runs on the survivor alone and still matches.
	again, err := eng.FilterCandidates(reads, cands, 5)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, again, "post-quarantine FilterCandidates")
}
