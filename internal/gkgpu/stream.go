package gkgpu

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cuda"
)

// defaultStreamBatchPairs is the dispatch granularity when the configuration
// does not set one: large enough to amortize the per-launch overhead, small
// enough that a stream spreads across devices quickly.
const defaultStreamBatchPairs = 1 << 14

// streamOutBuffer is the result channel's capacity; it decouples the
// consumer from the reorder stage without unbounding memory.
const streamOutBuffer = 1 << 10

// streamLinger is how long the dispatcher waits for more pairs after a batch
// opens before flushing it partially filled. It trades a bounded latency for
// full batches: a saturating producer fills the batch long before the linger
// elapses, while a trickle stream still flushes promptly instead of paying
// the per-launch overhead on single-pair batches.
const streamLinger = 2 * time.Millisecond

// streamBatch carries one dispatch unit through the pipeline: from the
// dispatcher, to a device's encode stage, to its launch stage, to the
// reorder collector that emits results in input order.
//
// A batch that fails on a quarantined device travels back through the
// collector and dispatcher to a surviving device, keeping its seq — the
// ordering slot is assigned once, so redispatch cannot reorder the stream.
type streamBatch struct {
	seq   int
	items []Pair
	res   []Result
	err   error

	// Fault bookkeeping: retries made for this batch on the device that last
	// ran it, and whether its failure was the one that quarantined a device.
	retries     int64
	quarantined bool

	// Modelled timing, filled by the device that ran the batch. Telemetry is
	// not committed here: the collector folds it in sequence order so an
	// aborted stream counts nothing from the failed batch onward.
	devIdx    int
	kernelSec float64 // kernel + launch overhead, the CUDA-event clock
	busySec   float64 // pipelined busy time (max of encode and kernel stage)
	prepSec   float64 // host-encode share after the worker-pool speedup
	xferSec   float64 // PCIe share
	util      float64 // modelled compute utilization, for the power trace
}

// streamTally aggregates a stream's per-device modelled clocks; the stream's
// kernel and filter time are the clocks of the device that takes the longest,
// exactly as the paper treats multi-GPU rounds.
type streamTally struct {
	kernel, busy, prep, xfer []float64
	decisions                Stats
	records                  []kernelRecord
	err                      error // terminal classified error, if any
}

// FilterStream filters pairs arriving on in at the given threshold and
// returns a channel of results in input order (the order pairs are received
// from in, which many producer goroutines may feed concurrently). Each
// device runs an asynchronous double-buffered pipeline: while its kernel
// consumes one buffer set, the host-encode worker pool fills the other, so
// host preparation hides behind kernel execution instead of preceding it.
// Batches are bounded in flight — two per device, the buffer sets — so a
// slow consumer exerts backpressure all the way to the producers.
//
// Decisions are identical to FilterPairs. Unlike FilterPairs, which rejects
// the whole call, a pair whose lengths do not match the compiled geometry is
// reported as Undefined+Accept (the engine's defensive pass-to-verification
// convention) so the stream keeps its ordering slot. Cancelling ctx stops
// dispatch and closes the result channel after in-flight batches drain;
// results not yet emitted are dropped. The channel closes when in is closed
// and every result has been emitted.
//
// The stream is fault tolerant: a failed batch retries on its device under
// Config.Fault's bounded-backoff policy; a device that keeps failing (or is
// lost outright) is quarantined, and its in-flight and future batches
// redispatch to the surviving devices with decisions, order, and decision
// stats bit-identical to a fault-free run. Only when no device survives does
// the stream abort terminally: emission stops, the input channel is drained
// so producers never block, and StreamErr returns the first classified fault
// wrapped in ErrStreamAborted. An engine runs one stream or one FilterPairs
// call at a time; concurrent calls serialize on the device buffers.
func (e *Engine) FilterStream(ctx context.Context, in <-chan Pair, errThreshold int) (<-chan Result, error) {
	if errThreshold < 0 || errThreshold > e.cfg.MaxE {
		return nil, fmt.Errorf("gkgpu: threshold %d outside compiled [0,%d]", errThreshold, e.cfg.MaxE)
	}
	out := make(chan Result, streamOutBuffer)
	go runStream(e, ctx, in, errThreshold, out)
	return out, nil
}

// StreamErr returns the terminal error of the most recently completed
// stream, or nil. A stream whose result channel closed before every input
// pair was answered either was cancelled (ctx) or failed; StreamErr
// distinguishes the two. A failure is the first classified DeviceFault,
// wrapped in ErrStreamAborted — errors.Is matches both the abort and the
// fault's taxonomy kind, and errors.As recovers the DeviceFault itself.
func (e *Engine) StreamErr() error {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.streamErr
}

func (e *Engine) setStreamErr(err error) {
	e.statsMu.Lock()
	e.streamErr = err
	e.statsMu.Unlock()
}

// streamBatchPairs resolves the dispatch granularity against the smallest
// live per-device capacity.
func (e *Engine) streamBatchPairs() int {
	minCap := 0
	for _, st := range e.states {
		if st.down.Load() {
			continue
		}
		if minCap == 0 || st.sys.BatchPairs < minCap {
			minCap = st.sys.BatchPairs
		}
	}
	b := e.cfg.StreamBatchPairs
	if b == 0 {
		b = defaultStreamBatchPairs
	}
	if minCap > 0 && b > minCap {
		b = minCap
	}
	return b
}

// drainInput consumes a terminally failed stream's input to exhaustion, so a
// producer that does not watch the stream's state never deadlocks on send.
// Callers only invoke it on terminal failure, never on cancellation — a
// cancelled producer is expected to stop on the same ctx, whereas a failed
// stream's producer may know nothing and must be unblocked until it closes
// the channel, as the stream contract requires.
func drainInput(in <-chan Pair) {
	for range in {
	}
}

// runStream owns a stream's lifetime: dispatching batches, fanning them out
// to the per-device pipelines, reordering completions, redispatching batches
// off quarantined devices, and committing stats.
func runStream(e *Engine, ctx context.Context, in <-chan Pair, errThreshold int, out chan<- Result) {
	defer close(out)
	// The stream owns every device for its whole life; runMu held across the
	// pipeline (including its channel waits) is that ownership.
	//gk:allow lockcheck: runMu intentionally serializes the whole stream against one-shot calls and reference replacement
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if len(e.states) == 0 {
		e.setStreamErr(fmt.Errorf("%w: engine is closed", ErrStreamAborted))
		drainInput(in)
		return
	}
	if e.liveStates() == 0 {
		e.setStreamErr(fmt.Errorf("%w: %w: every device is quarantined", ErrStreamAborted, ErrDeviceLost))
		drainInput(in)
		return
	}

	wallStart := time.Now()
	nDev := len(e.states)
	batchCap := e.streamBatchPairs()

	// dispatch is unbuffered: a batch is accepted only when some device has
	// a free buffer set, which bounds in-flight work to two batches per
	// device. completed has room for every batch that can be in flight so
	// device pipelines never stall on the collector. resubmit carries
	// batches bounced off a quarantined device back to the dispatcher for a
	// surviving one; its capacity also covers every in-flight batch, so the
	// collector never blocks on it. settled pulses when the collector
	// finalizes a batch; after input ends the dispatcher waits on it until
	// every issued batch has resolved, forwarding redispatches meanwhile.
	dispatch := make(chan *streamBatch)
	completed := make(chan *streamBatch, bufferSets*nDev+1)
	// A dying device bounces at most its pipeline depth plus one in-hand
	// batch (bufferSets+2); sized for every device dying, the collector's
	// resubmit send can never block, so it always returns to draining
	// completed — the property the pipeline's liveness rests on.
	resubmit := make(chan *streamBatch, (bufferSets+2)*nDev)
	settled := make(chan struct{}, 1)
	var inFlight atomic.Int64

	// Batches recycle through a pool: in-flight count is bounded (two per
	// device plus the one being filled), so after warm-up the steady-state
	// stream allocates no batch structs, item slices, or result slices —
	// the dispatcher appends into a recycled items buffer and the collector
	// returns each batch once its results have been emitted and tallied.
	var pool sync.Pool
	newBatch := func() *streamBatch {
		if b, ok := pool.Get().(*streamBatch); ok {
			b.items = b.items[:0]
			b.err = nil
			b.retries = 0
			b.quarantined = false
			return b
		}
		return &streamBatch{items: make([]Pair, 0, batchCap)}
	}
	recycle := func(b *streamBatch) {
		clear(b.items) // drop references so recycling never retains sequences
		b.items = b.items[:0]
		pool.Put(b)
	}

	var workers sync.WaitGroup
	for di, st := range e.states {
		if st.down.Load() {
			continue // quarantined by an earlier stream or one-shot call
		}
		workers.Add(1)
		go func(di int, st *deviceState) {
			defer workers.Done()
			streamWorker(e, ctx, di, st, errThreshold, dispatch, completed)
		}(di, st)
	}

	// Reorder collector: emit batches in sequence order, input order within
	// each batch. A failed batch redispatches while survivors exist; the
	// first failure with none left is terminal — emission stops, aborted
	// tells the dispatcher, and completions keep draining so the device
	// pipelines can finish.
	tallyCh := make(chan streamTally, 1)
	aborted := make(chan struct{})
	go func() {
		tally := streamTally{
			kernel: make([]float64, nDev),
			busy:   make([]float64, nDev),
			prep:   make([]float64, nDev),
			xfer:   make([]float64, nDev),
		}
		pending := make(map[int]*streamBatch)
		next := 0
		canceled, failed := false, false
		finalize := func(b *streamBatch) {
			recycle(b)
			inFlight.Add(-1)
			select {
			case settled <- struct{}{}:
			default: // a wake-up is already pending
			}
		}
		for b := range completed {
			if b.err != nil {
				// Retries spent on the failing device still count, whatever
				// happens to the batch next.
				tally.decisions.Retries += b.retries
				b.retries = 0
				if b.quarantined {
					tally.decisions.DevicesLost++
					b.quarantined = false
				}
				if !failed && ctx.Err() == nil && e.liveStates() > 0 {
					// Redispatch: the batch keeps its seq, so emission order
					// is untouched; a surviving device reruns the identical
					// encode+launch, so decisions are bit-identical too.
					b.err = nil
					tally.decisions.Redispatches++
					resubmit <- b // capacity covers every in-flight batch, the send cannot block
					continue
				}
				if !failed && ctx.Err() == nil {
					tally.err = fmt.Errorf("%w: %w", ErrStreamAborted, b.err)
					failed = true
					//gk:allow chanlife: the failed flag above makes this close once-only; the guard is a boolean the flow analysis cannot track
					close(aborted)
				}
				// Terminal or cancelled: the batch is dropped undelivered.
				finalize(b)
				continue
			}
			pending[b.seq] = b
			for {
				nb, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				if failed {
					finalize(nb)
					continue
				}
				// Clocks, decisions, and device telemetry tally here, in
				// sequence order, so a failure cleanly cuts the stats at
				// the failed batch.
				tally.kernel[nb.devIdx] += nb.kernelSec
				tally.busy[nb.devIdx] += nb.busySec
				tally.prep[nb.devIdx] += nb.prepSec
				tally.xfer[nb.devIdx] += nb.xferSec
				tally.decisions.Batches++
				tally.decisions.Retries += nb.retries
				tally.decisions.countDecisions(nb.res)
				tally.records = append(tally.records, kernelRecord{
					dev: e.states[nb.devIdx].dev, kt: nb.kernelSec, util: nb.util})
				if !canceled {
					for _, r := range nb.res {
						select {
						case out <- r:
						case <-ctx.Done():
							canceled = true
						}
						if canceled {
							break
						}
					}
				}
				finalize(nb)
			}
		}
		tallyCh <- tally
	}()

	// Dispatcher: group incoming pairs into batches. The first pair of a
	// batch is awaited indefinitely; once a batch is open it fills until
	// full or until the linger window elapses, so a saturated stream ships
	// whole batches while a sparse one still flushes with bounded latency.
	// Batches come from the recycling pool, so steady-state dispatch
	// performs no allocation. The dispatcher doubles as the redispatch
	// router: batches bounced off a quarantined device re-enter dispatch
	// here, before fresh input, so they reach a surviving device promptly.
	seq := 0
	var batch *streamBatch
	linger := time.NewTimer(streamLinger)
	if !linger.Stop() {
		<-linger.C
	}
	forward := func(b *streamBatch) bool {
		select {
		case dispatch <- b:
			return true
		case <-ctx.Done():
			return false
		case <-aborted:
			return false
		}
	}
	flush := func() bool {
		if batch == nil || len(batch.items) == 0 {
			return true
		}
		b := batch
		batch = nil
		b.seq = seq
		seq++
		if cap(b.res) < len(b.items) {
			b.res = make([]Result, len(b.items))
		} else {
			b.res = b.res[:len(b.items)]
		}
		inFlight.Add(1)
		if !forward(b) {
			inFlight.Add(-1)
			return false
		}
		return true
	}
	stopLinger := func() {
		if !linger.Stop() {
			<-linger.C
		}
	}
receive:
	for {
		select {
		case p, ok := <-in:
			if !ok {
				break receive
			}
			if batch == nil {
				batch = newBatch()
			}
			batch.items = append(batch.items, p)
		case rb := <-resubmit:
			if !forward(rb) {
				break receive
			}
			continue receive
		case <-ctx.Done():
			break receive
		case <-aborted:
			break receive
		}
		linger.Reset(streamLinger)
	drain:
		for len(batch.items) < batchCap {
			select {
			case p, ok := <-in:
				if !ok {
					stopLinger()
					break receive
				}
				batch.items = append(batch.items, p)
			case rb := <-resubmit:
				if !forward(rb) {
					stopLinger()
					break receive
				}
			case <-ctx.Done():
				stopLinger()
				break receive
			case <-linger.C:
				break drain
			}
		}
		if len(batch.items) >= batchCap {
			stopLinger()
		}
		if !flush() {
			break receive
		}
	}
	if ctx.Err() == nil {
		flush()
	}
	// Input is done (closed, cancelled, or aborted), but redispatched
	// batches may still be in flight: keep routing them until the collector
	// has finalized everything issued.
settle:
	for inFlight.Load() > 0 {
		select {
		case rb := <-resubmit:
			if !forward(rb) {
				break settle
			}
		case <-settled:
		case <-ctx.Done():
			break settle
		case <-aborted:
			break settle
		}
	}
	close(dispatch)
	workers.Wait()
	close(completed)
	tally := <-tallyCh
	if tally.err != nil {
		// Terminal failure: honour the producer contract by draining the
		// input the receive loop walked away from.
		drainInput(in)
	}

	// Commit the stream's modelled clocks: the device that stayed busy the
	// longest is the stream's critical path.
	acc := tally.decisions
	acc.KernelSeconds = maxFloat(tally.kernel)
	acc.FilterSeconds = maxFloat(tally.busy)
	acc.HostPrepSeconds = maxFloat(tally.prep)
	acc.TransferSeconds = maxFloat(tally.xfer)
	acc.WallSeconds = time.Since(wallStart).Seconds()
	for _, r := range tally.records {
		r.dev.RecordKernel(r.kt, r.util)
	}
	e.setStreamErr(tally.err)
	e.commitStats(acc)
}

// streamWorker is one device's half of the pipeline: an encode stage (this
// goroutine) and a launch stage (a nested goroutine) connected by the two
// buffer sets. While the launcher runs the kernel over one set, the encoder
// fills the other — the double-buffered overlap the stream models. When the
// device is quarantined the worker bounces its current batch back through
// completed (for redispatch) and stops consuming; the surviving workers own
// the rest of the stream.
func streamWorker(e *Engine, ctx context.Context, di int, st *deviceState, errThreshold int,
	dispatch <-chan *streamBatch, completed chan<- *streamBatch) {

	type work struct {
		set *bufferSet
		b   *streamBatch
	}
	free := make(chan *bufferSet, len(st.sets))
	for _, set := range st.sets {
		free <- set
	}
	ready := make(chan work)
	launcherDone := make(chan struct{})
	go func() {
		defer close(launcherDone)
		for wk := range ready {
			b, set := wk.b, wk.set
			b.retries, b.quarantined, b.err = launchWithRetry(e, ctx, st, b.seq, func() error {
				return e.launchDecode(st, set, len(b.items), errThreshold, b.res)
			})
			if b.err == nil {
				tallyBatch(e, st, di, b, e.workload(len(b.items), errThreshold))
			}
			free <- set
			completed <- b //gk:allow streamsafe: the collector drains completed until every worker's launcherDone closes
		}
	}()
	for b := range dispatch {
		if st.down.Load() {
			b.err = classifyFault(st.dev.ID, b.seq, 0, cuda.ErrDeviceLost)
			completed <- b //gk:allow streamsafe: completed's capacity covers every in-flight batch
			break
		}
		set := <-free
		e.encodeChunk(st, set, b.items)
		e.prefetch(st, set)
		ready <- work{set: set, b: b} //gk:allow streamsafe: the launcher goroutine drains ready until this loop closes it
	}
	close(ready)
	<-launcherDone
}

// launchWithRetry runs one launch under the engine's fault policy, for a
// stream batch (batch is its sequence number) and for a device's share of a
// one-shot round (batch -1) alike. Transient failures rerun launch with
// doubling, capped, ctx-interruptible backoff; launch must therefore be
// repeatable (an injected fault fires before any kernel thread runs, so a
// rerun reproduces the work exactly). A lost device, exhausted attempts, or
// cancellation end the loop with the classified fault; the first two also
// quarantine the device, and quarantined reports whether this call did so,
// so the caller counts each quarantine event exactly once. retries is how
// many attempts were repeated.
func launchWithRetry(e *Engine, ctx context.Context, st *deviceState, batch int,
	launch func() error) (retries int64, quarantined bool, err error) {

	pol := e.cfg.Fault
	backoff := pol.Backoff
	for attempt := 1; ; attempt++ {
		if st.down.Load() {
			return retries, false, classifyFault(st.dev.ID, batch, attempt-1, cuda.ErrDeviceLost)
		}
		lerr := launch()
		if lerr == nil {
			return retries, false, nil
		}
		fault := classifyFault(st.dev.ID, batch, attempt, lerr)
		if errors.Is(lerr, cuda.ErrDeviceLost) || attempt >= pol.MaxAttempts {
			return retries, st.down.CompareAndSwap(false, true), fault
		}
		if ctx.Err() != nil {
			// Cancelled mid-batch: no quarantine — the fault was transient
			// and the stream is winding down anyway.
			return retries, false, fault
		}
		retries++
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return retries, false, fault
		}
		backoff *= 2
		if backoff > pol.MaxBackoff {
			backoff = pol.MaxBackoff
		}
	}
}

// tallyBatch fills a completed batch's modelled clocks for the device that
// ran it; the collector commits them (and the device telemetry) only for
// batches before any failure. The encode-pool width comes from the modelled
// Setup, not the simulating machine, so the clocks are reproducible anywhere.
//
//gk:noalloc
func tallyBatch(e *Engine, st *deviceState, di int, b *streamBatch, w cuda.Workload) {
	m := e.cfg.Model
	encWorkers := e.cfg.Setup.EncodeWorkers
	if encWorkers < 1 {
		encWorkers = 1
	}
	b.devIdx = di
	b.kernelSec = m.KernelSeconds(st.dev.Spec, w) + m.PerLaunchSeconds
	b.busySec = m.PipelinedFilterSeconds(st.dev.Spec, w, encWorkers, e.cfg.Setup.HostFactor)
	b.prepSec = m.HostPrepSeconds(w, e.cfg.Setup.HostFactor) / m.EncodePoolSpeedup(encWorkers)
	b.xferSec = m.TransferSeconds(st.dev.Spec, w)
	b.util = m.Utilization(st.dev.Spec, w)
}

//gk:noalloc
func maxFloat(xs []float64) float64 {
	max := 0.0
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	return max
}
