package gkgpu

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/cuda"
	"repro/internal/dna"
	"repro/internal/filter"
)

// Stats accumulates the measurements of Section 4.3 across an engine's
// lifetime. KernelSeconds and FilterSeconds come from the calibrated cost
// model (the paper's CUDA-event and host-side clocks); WallSeconds is the
// real time this simulation spent, reported for transparency.
type Stats struct {
	Pairs     int64
	Accepted  int64
	Rejected  int64
	Undefined int64
	Batches   int64

	// Fault-recovery counters. Retries counts batch attempts repeated after
	// a transient fault, Redispatches counts batches moved to a surviving
	// device after a quarantine, DevicesLost counts quarantine events. They
	// are the only Stats fields a faulty-but-survived stream may change
	// relative to a fault-free run: decisions and decision counters stay
	// bit-identical.
	Retries      int64
	Redispatches int64
	DevicesLost  int64

	KernelSeconds     float64 // modelled device time (max across devices per round)
	FilterSeconds     float64 // modelled end-to-end filtering time
	HostPrepSeconds   float64 // modelled host encode/fill share of FilterSeconds
	TransferSeconds   float64 // modelled PCIe share of FilterSeconds
	WallSeconds       float64
	FaultMigrations   int64 // unified-memory bytes moved on demand
	PrefetchMigration int64 // unified-memory bytes moved by prefetch
}

// RejectionRate returns rejected / total pairs.
func (s Stats) RejectionRate() float64 {
	if s.Pairs == 0 {
		return 0
	}
	return float64(s.Rejected) / float64(s.Pairs)
}

// add merges a locally accumulated Stats delta into s. The migration fields
// are absolute gauges, not deltas: add ignores them and commitStats
// recomputes both from live buffer state after every merge.
func (s *Stats) add(d Stats) {
	s.Pairs += d.Pairs
	s.Accepted += d.Accepted
	s.Rejected += d.Rejected
	s.Undefined += d.Undefined
	s.Batches += d.Batches
	s.Retries += d.Retries
	s.Redispatches += d.Redispatches
	s.DevicesLost += d.DevicesLost
	s.KernelSeconds += d.KernelSeconds
	s.FilterSeconds += d.FilterSeconds
	s.HostPrepSeconds += d.HostPrepSeconds
	s.TransferSeconds += d.TransferSeconds
	s.WallSeconds += d.WallSeconds
}

// bufferSets is how many independent buffer sets each device holds. Two sets
// let the host encode batch N+1 while the kernel consumes batch N (the
// double-buffered streaming path); the system-configuration stage divides
// the memory budget accordingly.
const bufferSets = 2

// bufferSet is one independent group of unified-memory buffers plus the
// prefetch streams that drive its transfers. A set is owned by exactly one
// pipeline stage at a time: the encoder fills it, hands it to the launcher,
// and gets it back once the kernel's results have been decoded.
type bufferSet struct {
	readBuf *cuda.UMBuffer
	refBuf  *cuda.UMBuffer
	flagBuf *cuda.UMBuffer
	resBuf  *cuda.UMBuffer
	streams []*cuda.Stream
}

func (s *bufferSet) free() {
	if s == nil {
		return
	}
	for _, b := range []*cuda.UMBuffer{s.readBuf, s.refBuf, s.flagBuf, s.resBuf} {
		if b != nil {
			b.Free()
		}
	}
}

// deviceState is the per-device slice of the engine: double-buffered unified
// memory, one filter kernel per executor goroutine (the per-thread stack
// frames), and the scratch arrays of the host-side encode pool.
type deviceState struct {
	dev  *cuda.Device
	sys  SystemConfig
	sets [bufferSets]*bufferSet
	// Kernel-side scratch: per-worker kernels and word views used while
	// decoding packed input inside the simulated kernel.
	kernels   []*filter.Kernel
	readWords [][]uint64
	refWords  [][]uint64
	// Host-side encode-pool scratch, disjoint from the kernel scratch so the
	// encode of one buffer set can overlap the launch of the other.
	encWords [][]uint64
	// down marks the device quarantined: permanently failed (device lost)
	// or repeatedly faulting. Quarantine outlives the stream that imposed
	// it; every engine entry point skips down devices.
	down atomic.Bool
}

// Engine is a GateKeeper-GPU instance bound to a context of simulated
// devices. One engine drives all its devices concurrently inside FilterPairs
// and FilterStream. Engine methods are safe for concurrent use: Stats and
// ResetStats may be called at any time, and concurrent FilterPairs calls or
// streams serialize on the device buffers (a stream holds them for its whole
// lifetime). Many goroutines may produce into a single stream's input
// channel.
type Engine struct {
	cfg    Config
	ctx    *cuda.Context
	states []*deviceState
	ref    *reference // loaded by SetReference for the index-named path

	// runMu serializes buffer ownership: one FilterPairs call or one active
	// stream at a time. statsMu guards the accumulated measurements, which
	// are committed only after a round or stream completes without error,
	// and the last stream's terminal error.
	runMu     sync.Mutex
	statsMu   sync.Mutex
	stats     Stats
	streamErr error
}

// NewEngine configures buffers and kernels on every device of ctx for the
// given geometry, performing the paper's configuration and resource
// allocation stages. Each device receives two full buffer sets so the
// streaming path can overlap host encoding with kernel execution; the
// memory-derived batch capacity is halved accordingly (deliberately eager —
// allocation failures surface here, never mid-stream). Configurations
// bounded by MaxBatchPairs, the common case, are unaffected.
func NewEngine(cfg Config, ctx *cuda.Context) (*Engine, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx.NumDevices() == 0 {
		return nil, fmt.Errorf("gkgpu: context has no devices")
	}
	e := &Engine{cfg: cfg, ctx: ctx}
	for _, dev := range ctx.Devices() {
		sys := Configure(dev.Spec, cfg.ReadLen, cfg.MaxE, cfg.Encoding,
			cfg.ThreadsPerBlock, cfg.RegsPerThread, cfg.MaxBatchPairs)
		st := &deviceState{dev: dev, sys: sys}
		var seqBytes int
		if cfg.Encoding == EncodeOnDevice {
			seqBytes = cfg.ReadLen
		} else {
			seqBytes = bitvec.EncodedWords(cfg.ReadLen) * 8
		}
		for i := range st.sets {
			set, err := allocSet(dev, sys.BatchPairs, seqBytes)
			if err != nil {
				e.Close()
				return nil, err
			}
			st.sets[i] = set
		}
		workers := cuda.MaxWorkers(sys.BatchPairs)
		mode := filter.ModeGPU
		for w := 0; w < workers; w++ {
			st.kernels = append(st.kernels, filter.NewKernel(mode, cfg.ReadLen, cfg.MaxE))
			st.readWords = append(st.readWords, make([]uint64, bitvec.EncodedWords(cfg.ReadLen)))
			st.refWords = append(st.refWords, make([]uint64, bitvec.EncodedWords(cfg.ReadLen)))
			st.encWords = append(st.encWords, make([]uint64, bitvec.EncodedWords(cfg.ReadLen)))
		}
		e.states = append(e.states, st)
	}
	return e, nil
}

// allocSet allocates one buffer set on the device and applies the paper's
// memory advice: "the preferred location of the data is set to be the GPU
// device for the input buffers"; each buffer prefetches on its own stream.
func allocSet(dev *cuda.Device, batchPairs, seqBytes int) (*bufferSet, error) {
	set := &bufferSet{}
	var err error
	if set.readBuf, err = dev.AllocUnified(batchPairs * seqBytes); err != nil {
		set.free()
		return nil, fmt.Errorf("gkgpu: read buffer: %w", allocFault(dev, err))
	}
	if set.refBuf, err = dev.AllocUnified(batchPairs * seqBytes); err != nil {
		set.free()
		return nil, fmt.Errorf("gkgpu: reference buffer: %w", allocFault(dev, err))
	}
	if set.flagBuf, err = dev.AllocUnified(batchPairs); err != nil {
		set.free()
		return nil, fmt.Errorf("gkgpu: flag buffer: %w", allocFault(dev, err))
	}
	if set.resBuf, err = dev.AllocUnified(batchPairs * resultStride); err != nil {
		set.free()
		return nil, fmt.Errorf("gkgpu: result buffer: %w", allocFault(dev, err))
	}
	set.readBuf.Advise(cuda.AdvisePreferredDevice)
	set.refBuf.Advise(cuda.AdvisePreferredDevice)
	set.flagBuf.Advise(cuda.AdvisePreferredDevice)
	for i := 0; i < 3; i++ {
		set.streams = append(set.streams, dev.NewStream())
	}
	return set, nil
}

// Close releases every unified-memory buffer. It waits for an in-progress
// FilterPairs call or active stream to finish first, so buffers are never
// freed under a running kernel; cancel a stream's context (and let its
// result channel close) before calling Close if you are abandoning it.
func (e *Engine) Close() {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	e.clearReference()
	for _, st := range e.states {
		for _, set := range st.sets {
			set.free()
		}
	}
	e.states = nil
}

// Config returns the engine's (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// SystemConfigs returns the per-device configuration results.
func (e *Engine) SystemConfigs() []SystemConfig {
	out := make([]SystemConfig, len(e.states))
	for i, st := range e.states {
		out[i] = st.sys
	}
	return out
}

// Stats returns the accumulated measurements.
func (e *Engine) Stats() Stats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stats
}

// ResetStats clears the accumulated measurements.
func (e *Engine) ResetStats() {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	e.stats = Stats{}
}

// commitStats merges a completed round's or stream's delta and refreshes the
// unified-memory migration gauges. Called only after every per-device error
// has been checked, so a failed round never inflates the counters.
func (e *Engine) commitStats(d Stats) {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	e.stats.add(d)
	e.stats.FaultMigrations = 0
	e.stats.PrefetchMigration = 0
	for _, st := range e.states {
		for _, set := range st.sets {
			f1, p1 := set.readBuf.MigrationStats()
			f2, p2 := set.refBuf.MigrationStats()
			e.stats.FaultMigrations += f1 + f2
			e.stats.PrefetchMigration += p1 + p2
		}
	}
}

// countDecisions folds a result slice into the Stats decision counters.
func (s *Stats) countDecisions(results []Result) {
	for i := range results {
		s.Pairs++
		switch {
		case results[i].Undefined:
			s.Undefined++
			s.Accepted++
		case results[i].Accept:
			s.Accepted++
		default:
			s.Rejected++
		}
	}
}

// kernelRecord is one device's modelled kernel execution, held back until a
// round's error check passes and then folded into the device telemetry.
type kernelRecord struct {
	dev      *cuda.Device
	kt, util float64
}

// roundClocks is the modelled timing of one multi-device round: the critical
// path across participating devices for each clock, plus the per-device
// kernel records.
type roundClocks struct {
	kernel, filter, prep, xfer float64
	records                    []kernelRecord
}

// modelRound evaluates one round's clocks on each participating device's
// actual spec and share, taking the max — "kernel time represents the time
// of the device which takes the longest".
func (e *Engine) modelRound(shares []int, w cuda.Workload) roundClocks {
	nActive := 0
	for _, s := range shares {
		if s > 0 {
			nActive++
		}
	}
	var rc roundClocks
	for di, st := range e.states {
		if shares[di] == 0 {
			continue
		}
		ws := w
		ws.Pairs = shares[di]
		dkt := e.cfg.Model.ShareKernelSeconds(st.dev.Spec, ws, nActive)
		dft := e.cfg.Model.ShareFilterSeconds(st.dev.Spec, ws, nActive, e.cfg.Setup.HostFactor)
		if dkt > rc.kernel {
			rc.kernel = dkt
		}
		if dft > rc.filter {
			rc.filter = dft
		}
		if p := e.cfg.Model.HostPrepSeconds(ws, e.cfg.Setup.HostFactor); p > rc.prep {
			rc.prep = p
		}
		if x := e.cfg.Model.TransferSeconds(st.dev.Spec, ws); x > rc.xfer {
			rc.xfer = x
		}
		rc.records = append(rc.records, kernelRecord{
			dev:  st.dev,
			kt:   dkt + e.cfg.Model.PerLaunchSeconds,
			util: e.cfg.Model.Utilization(st.dev.Spec, ws),
		})
	}
	rc.kernel += e.cfg.Model.PerLaunchSeconds
	rc.filter += e.cfg.Model.PerLaunchSeconds + e.cfg.Model.PerBatchHostSeconds
	return rc
}

// workload returns the cost-model workload shape for this engine at the
// given threshold and pair count.
func (e *Engine) workload(pairs, errThreshold int) cuda.Workload {
	return cuda.Workload{
		Pairs:         pairs,
		ReadLen:       e.cfg.ReadLen,
		E:             errThreshold,
		DeviceEncoded: e.cfg.Encoding == EncodeOnDevice,
	}
}

// roundShares splits a round of n pairs across the devices in proportion to
// each device's modelled filtration rate, capped by its batch capacity. For
// the paper's homogeneous contexts this degrades to the equal split of
// Section 3.1 ("the batch size is equal for all devices to ensure a fair
// workload"); a mixed Pascal/Kepler context hands the slower card
// proportionally fewer pairs so the round's critical path shrinks.
// Quarantined devices get zero weight, re-splitting the round across the
// survivors; callers guarantee at least one device is live.
func (e *Engine) roundShares(n int, w cuda.Workload) []int {
	nDev := len(e.states)
	shares := make([]int, nDev)
	if n <= 0 {
		return shares
	}
	weights := make([]float64, nDev)
	total := 0.0
	for i, st := range e.states {
		if st.down.Load() {
			continue
		}
		weights[i] = e.cfg.Model.PairRate(st.dev.Spec, w)
		total += weights[i]
	}
	// Largest-remainder apportionment keeps the split deterministic.
	type frac struct {
		i int
		f float64
	}
	fracs := make([]frac, nDev)
	assigned := 0
	for i := range shares {
		exact := float64(n) * weights[i] / total
		shares[i] = int(exact)
		assigned += shares[i]
		fracs[i] = frac{i, exact - float64(shares[i])}
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
	for r := 0; r < n-assigned; r++ {
		shares[fracs[r%nDev].i]++
	}
	// Clamp to per-device capacity and push overflow to devices with spare
	// room; the caller guarantees n <= sum of capacities.
	overflow := 0
	for i, st := range e.states {
		if shares[i] > st.sys.BatchPairs {
			overflow += shares[i] - st.sys.BatchPairs
			shares[i] = st.sys.BatchPairs
		}
	}
	for i, st := range e.states {
		if overflow == 0 {
			break
		}
		if st.down.Load() {
			continue
		}
		if room := st.sys.BatchPairs - shares[i]; room > 0 {
			if room > overflow {
				room = overflow
			}
			shares[i] += room
			overflow -= room
		}
	}
	return shares
}

// liveRoundCap sums the batch capacities of non-quarantined devices: how
// many pairs one synchronized round can take.
func (e *Engine) liveRoundCap() int {
	cap := 0
	for _, st := range e.states {
		if st.down.Load() {
			continue
		}
		cap += st.sys.BatchPairs
	}
	return cap
}

// FilterPairs filters every pair at threshold e, batching across the
// context's devices as Section 3.1 describes, with the share of each device
// weighted by its modelled filtration rate. Results are returned in input
// order. The one-shot timing model matches the paper's measured pipeline
// (encode, transfer and kernel charged sequentially per round); FilterStream
// models and exercises the overlapped double-buffered pipeline instead.
// Device faults are handled as filterRounds describes.
func (e *Engine) FilterPairs(pairs []Pair, errThreshold int) ([]Result, error) {
	if errThreshold < 0 || errThreshold > e.cfg.MaxE {
		return nil, fmt.Errorf("gkgpu: threshold %d outside compiled [0,%d]", errThreshold, e.cfg.MaxE)
	}
	for i, p := range pairs {
		if len(p.Read) != e.cfg.ReadLen || len(p.Ref) != e.cfg.ReadLen {
			return nil, fmt.Errorf("gkgpu: pair %d has lengths %d/%d; engine compiled for %d",
				i, len(p.Read), len(p.Ref), e.cfg.ReadLen)
		}
	}
	results := make([]Result, len(pairs))
	err := e.filterRounds(results, e.workload(0, errThreshold), func(st *deviceState, _, lo, hi int) error {
		return e.runBatch(st, st.sets[0], pairs[lo:hi], errThreshold, results[lo:hi])
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// span is a half-open range [lo, hi) of a one-shot call's items.
type span struct{ lo, hi int }

// filterRounds is the round loop behind FilterPairs and FilterCandidates:
// it fills results (one slot per item) in synchronized multi-device rounds,
// each device running share [lo, hi) of the items through run. A round
// takes at most the live devices' summed batch capacity, split by
// roundShares; w is the cost-model workload, whose pair count is set per
// round.
//
// Under Config.Fault a device's share retries transient faults with the
// stream's policy (launchWithRetry), so run must be repeatable. A device
// that is lost or exhausts its attempts is quarantined and its unfinished
// share is re-split over the survivors within the same call, into the same
// result slots: decisions and order are identical to a fault-free call,
// and only the modelled clocks, Batches and the Retries/Redispatches/
// DevicesLost counters show what happened. Only when no device survives
// does the call fail, with the first classified DeviceFault; the fault
// counters are still committed, the decision counters and device telemetry
// are not.
func (e *Engine) filterRounds(results []Result, w cuda.Workload, run func(st *deviceState, di, lo, hi int) error) error {
	// Rounds run under runMu by design: the devices are the contended
	// resource, and overlapping calls would interleave per-device batches.
	//gk:allow lockcheck: runMu intentionally serializes whole filtering rounds, including each round's wg.Wait
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if len(e.states) == 0 {
		return fmt.Errorf("gkgpu: engine is closed")
	}
	wallStart := time.Now()

	// Round stats and device telemetry accumulate locally and are committed
	// only once every item has a decision, so a failed call leaves the
	// decision counters untouched.
	var acc Stats
	var records []kernelRecord
	var fault error
	type outcome struct {
		lo, hi      int
		retries     int64
		quarantined bool
		err         error
	}
	outs := make([]outcome, len(e.states))
	var todo []span
	if len(results) > 0 {
		todo = append(todo, span{0, len(results)})
	}
	for len(todo) > 0 {
		sp := todo[0]
		todo = todo[1:]
		roundCap := e.liveRoundCap()
		if roundCap == 0 {
			if fault == nil {
				fault = errAllQuarantined()
			}
			e.commitStats(Stats{Retries: acc.Retries, Redispatches: acc.Redispatches, DevicesLost: acc.DevicesLost})
			return fault
		}
		if sp.hi-sp.lo > roundCap {
			todo = append(todo, span{sp.lo + roundCap, sp.hi})
			sp.hi = sp.lo + roundCap
		}
		w.Pairs = sp.hi - sp.lo
		shares := e.roundShares(w.Pairs, w)
		var wg sync.WaitGroup
		lo := sp.lo
		for di, st := range e.states {
			outs[di] = outcome{}
			if shares[di] == 0 {
				continue
			}
			outs[di].lo, outs[di].hi = lo, lo+shares[di]
			lo += shares[di]
			wg.Add(1)
			go func(di int, st *deviceState, o *outcome) {
				defer wg.Done()
				// The one-shot signatures carry no context: a round is not
				// cancellable, so only the fault policy ends its retries.
				o.retries, o.quarantined, o.err = launchWithRetry(e, context.TODO(), st, -1, func() error {
					return run(st, di, o.lo, o.hi)
				})
			}(di, st, &outs[di])
		}
		wg.Wait()
		for di, o := range outs {
			acc.Retries += o.retries
			if o.err == nil {
				continue
			}
			if o.quarantined {
				acc.DevicesLost++
			}
			if fault == nil {
				fault = o.err
			}
			// Redispatch: the failed share's items keep their result slots,
			// so a later round on the survivors fills them in place.
			if e.liveStates() > 0 {
				acc.Redispatches++
			}
			todo = append(todo, span{o.lo, o.hi})
			shares[di] = 0
		}
		rc := e.modelRound(shares, w)
		acc.KernelSeconds += rc.kernel
		acc.FilterSeconds += rc.filter
		acc.HostPrepSeconds += rc.prep
		acc.TransferSeconds += rc.xfer
		acc.Batches++
		records = append(records, rc.records...)
	}

	acc.countDecisions(results)
	acc.WallSeconds = time.Since(wallStart).Seconds()
	for _, r := range records {
		r.dev.RecordKernel(r.kt, r.util)
	}
	e.commitStats(acc)
	return nil
}

// runBatch executes one device's share of a round on the given buffer set:
// fill unified buffers (preprocessing), advise/prefetch, launch, and decode
// the result buffer.
func (e *Engine) runBatch(st *deviceState, set *bufferSet, chunk []Pair, errThreshold int, out []Result) error {
	if len(chunk) == 0 {
		return nil
	}
	e.encodeChunk(st, set, chunk)
	e.prefetch(st, set)
	return e.launchDecode(st, set, len(chunk), errThreshold, out)
}

// encodeChunk performs the preprocessing stage for one batch: filling the
// unified buffers on the host, fanned out across the encode worker pool
// (each worker packs a contiguous slice of the batch with its own scratch
// words). A pair whose lengths do not match the compiled geometry is flagged
// undefined so the kernel skips it — FilterPairs rejects such pairs up
// front, but a stream must keep its slot to preserve ordering.
func (e *Engine) encodeChunk(st *deviceState, set *bufferSet, chunk []Pair) {
	n := len(chunk)
	L := e.cfg.ReadLen
	encWords := bitvec.EncodedWords(L)
	flags := set.flagBuf.Bytes()
	rb, fb := set.readBuf.Bytes(), set.refBuf.Bytes()

	workers := len(st.encWords)
	if workers > n {
		workers = n
	}
	stride := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		lo := wk * stride
		if lo >= n {
			break
		}
		hi := lo + stride
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(wk, lo, hi int) {
			defer wg.Done()
			if e.cfg.Encoding == EncodeOnDevice {
				for i := lo; i < hi; i++ {
					p := chunk[i]
					if len(p.Read) != L || len(p.Ref) != L {
						flags[i] = 1
						continue
					}
					copy(rb[i*L:], p.Read)
					copy(fb[i*L:], p.Ref)
					flags[i] = 0
				}
				return
			}
			words := st.encWords[wk]
			encodeInto := func(dst []byte, seq []byte) bool {
				// Encoding doubles as the 'N' scan: an unrecognized base is
				// the undefined condition, so each sequence is walked once
				// and no error value is allocated.
				if len(seq) != L || dna.TryEncodeInto(words, seq) >= 0 {
					return false
				}
				for w, v := range words {
					binary.LittleEndian.PutUint64(dst[w*8:], v)
				}
				return true
			}
			for i := lo; i < hi; i++ {
				p := chunk[i]
				okR := encodeInto(rb[i*encWords*8:(i+1)*encWords*8], p.Read)
				okF := encodeInto(fb[i*encWords*8:(i+1)*encWords*8], p.Ref)
				if okR && okF {
					flags[i] = 0
				} else {
					flags[i] = 1 // undefined: skip filtration in the kernel
				}
			}
		}(wk, lo, hi)
	}
	wg.Wait()

	if e.cfg.Encoding == EncodeOnDevice {
		set.readBuf.HostWrite(0, n*L)
		set.refBuf.HostWrite(0, n*L)
	} else {
		set.readBuf.HostWrite(0, n*encWords*8)
		set.refBuf.HostWrite(0, n*encWords*8)
	}
	set.flagBuf.HostWrite(0, n)
}

// prefetch submits each input buffer's migration on its own stream (no-ops
// on Kepler, where the kernel's first touch pays the fault path instead).
func (e *Engine) prefetch(st *deviceState, set *bufferSet) {
	set.readBuf.PrefetchAsync(set.streams[0])
	set.refBuf.PrefetchAsync(set.streams[1])
	set.flagBuf.PrefetchAsync(set.streams[2])
	if !st.dev.Spec.SupportsPrefetch() {
		// On-demand migration when the kernel touches the buffers.
		set.readBuf.DeviceTouch(0, set.readBuf.Len())
		set.refBuf.DeviceTouch(0, set.refBuf.Len())
	}
}

// launchDecode launches the filtration kernel over an encoded buffer set and
// decodes the result buffer into out.
func (e *Engine) launchDecode(st *deviceState, set *bufferSet, n, errThreshold int, out []Result) error {
	L := e.cfg.ReadLen
	encWords := bitvec.EncodedWords(L)
	flags := set.flagBuf.Bytes()
	res := set.resBuf.Bytes()
	lc := st.sys.Launch
	if need := (n + lc.ThreadsPerBlock - 1) / lc.ThreadsPerBlock; need < lc.Blocks {
		lc.Blocks = need // ragged final batch
	}
	err := st.dev.Launch(lc, n, func(worker, tid int) {
		var r Result
		if flags[tid] == 1 {
			r = Result{Accept: true, Undefined: true}
		} else if e.cfg.Encoding == EncodeOnDevice {
			d, ferr := st.kernels[worker].FilterChecked(
				set.readBuf.Bytes()[tid*L:(tid+1)*L],
				set.refBuf.Bytes()[tid*L:(tid+1)*L],
				errThreshold)
			if ferr != nil {
				r = Result{Accept: true} // defensive: pass to verification
			} else {
				r = Result{Accept: d.Accept, Undefined: d.Undefined, Estimate: uint16(d.Estimate)}
			}
		} else {
			rw, fw := st.readWords[worker], st.refWords[worker]
			rb := set.readBuf.Bytes()[tid*encWords*8:]
			fb := set.refBuf.Bytes()[tid*encWords*8:]
			for w := 0; w < encWords; w++ {
				rw[w] = binary.LittleEndian.Uint64(rb[w*8:])
				fw[w] = binary.LittleEndian.Uint64(fb[w*8:])
			}
			est, accept := st.kernels[worker].FilterEncoded(rw, fw, errThreshold)
			r = Result{Accept: accept, Estimate: uint16(est)}
		}
		base := tid * resultStride
		if r.Accept {
			res[base] = 1
		} else {
			res[base] = 0
		}
		if r.Undefined {
			res[base+1] = 1
		} else {
			res[base+1] = 0
		}
		binary.LittleEndian.PutUint16(res[base+2:], r.Estimate)
	})
	if err != nil {
		return err
	}

	// The host reads results back through the shared pointer — the batch's
	// only synchronization point (Section 3.5).
	set.resBuf.HostWrite(0, n*resultStride)
	for i := range out {
		base := i * resultStride
		out[i] = Result{
			Accept:    res[base] == 1,
			Undefined: res[base+1] == 1,
			Estimate:  binary.LittleEndian.Uint16(res[base+2:]),
		}
	}
	return nil
}
