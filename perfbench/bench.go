package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options is one benchmark run.
type options struct {
	w       workload
	seed    int64
	seconds time.Duration // measuring time; a traced run splits it in two
	trace   bool
	dir     string // build directory: scratch inputs, traces, run records
	minJobs int    // jobs per measured phase however short seconds is
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// endToEnd names the metrics an untraced run reports, in order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"reads_per_s", "1/s"},
	{"total_s", "s"},
	{"peak_rss_mb", "MB"},
	{"truth_recall", "ratio"},
}

// run generates the workload's inputs, maps them once unfiltered for the
// correctness gate, then repeats the filtered job for the measuring time.
// A traced run measures untraced jobs for half the time and traced jobs
// for the other half.
func run(o options) (*result, *runRecord, error) {
	work := filepath.Join(o.dir, "work", fmt.Sprintf("%s-seed%d", o.w.name, o.seed))
	if err := os.RemoveAll(work); err != nil {
		return nil, nil, err
	}
	defer func() {
		if err := os.RemoveAll(work); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: removing scratch inputs:", err)
		}
	}()
	in, err := generate(o.w, o.seed, work)
	if err != nil {
		return nil, nil, fmt.Errorf("generating inputs: %w", err)
	}
	base, err := runJob(o.w, in, noFilter, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("unfiltered reference run: %w", err)
	}

	res := &result{Metrics: make(map[string]value)}
	rec := newRecord(o, in)
	fail := func(kind string, i int, why string) {
		res.Failed++
		msg := fmt.Sprintf("%s job %d: %s", kind, i, why)
		rec.Failures = append(rec.Failures, msg)
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
	}
	// measure runs jobs for budget (at least minJobs of them) and returns
	// those that completed. A job fails unless its SAM equals the unfiltered
	// run's, which also makes every repetition's SAM equal, no fault counter
	// moved, and check passes.
	measure := func(kind string, budget time.Duration, check func(*job) string) []*job {
		var done []*job
		start := time.Now()
		for i := 0; i < o.minJobs || time.Since(start) < budget; i++ {
			res.Attempted++
			var tr *tracer
			if kind == "traced" {
				tr = newTracer(fmt.Sprintf("%s-seed%d-job%d", o.w.name, o.seed, i))
			}
			j, err := runJob(o.w, in, o.w.engine, tr)
			if err != nil {
				fail(kind, i, err.Error())
				continue
			}
			done = append(done, j)
			rec.add(j)
			switch {
			case j.digest != base.digest:
				fail(kind, i, fmt.Sprintf("SAM digest %s differs from the unfiltered run's %s", j.digest, base.digest))
			case j.eng.Retries+j.eng.Redispatches+j.eng.DevicesLost != 0:
				fail(kind, i, fmt.Sprintf("fault counters moved: retries=%d redispatches=%d devices_lost=%d",
					j.eng.Retries, j.eng.Redispatches, j.eng.DevicesLost))
			default:
				if why := check(j); why != "" {
					fail(kind, i, why)
				}
			}
		}
		return done
	}

	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	plain := measure("untraced", budget, func(*job) string { return "" })
	if len(plain) == 0 {
		return nil, nil, fmt.Errorf("no untraced job completed: %v", rec.Failures)
	}
	rec.Inputs.SAMBytes = plain[0].samBytes
	rec.Jobs = res.Attempted

	if !o.trace {
		for _, m := range endToEndMetrics(in, plain) {
			res.Metrics[m.name] = value{m.value, m.unit}
		}
	} else {
		// A traced job must do the same work as an untraced one: the same
		// counts here, and the same SAM digest, checked for every job.
		ref := plain[0].st
		same := func(j *job) string {
			s := j.st
			if s.CandidatePairs != ref.CandidatePairs || s.RejectedPairs != ref.RejectedPairs ||
				s.UndefinedPairs != ref.UndefinedPairs || s.VerificationPairs != ref.VerificationPairs ||
				s.Mappings != ref.Mappings {
				return fmt.Sprintf("traced counts differ from untraced: candidates %d/%d rejected %d/%d undefined %d/%d verified %d/%d mappings %d/%d",
					s.CandidatePairs, ref.CandidatePairs, s.RejectedPairs, ref.RejectedPairs,
					s.UndefinedPairs, ref.UndefinedPairs, s.VerificationPairs, ref.VerificationPairs,
					s.Mappings, ref.Mappings)
			}
			return ""
		}
		tracedJobs := measure("traced", budget, same)
		rec.Jobs = res.Attempted
		if len(tracedJobs) == 0 {
			return nil, nil, fmt.Errorf("no traced job completed: %v", rec.Failures)
		}
		layers := layerMetrics(o.w, in, tracedJobs)
		overhead := 1 - medianOf(tracedJobs, readsPerSecond(in))/medianOf(plain, readsPerSecond(in))
		layers = append(layers, metric{"trace.overhead_frac", "ratio", overhead})
		for _, m := range layers {
			res.Metrics[m.name] = value{m.value, m.unit}
		}
		rec.SelfSeconds = medianSelfTimes(tracedJobs)
		rec.Spans = filepath.Join(o.dir, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.w.name, o.seed))
		if err := writeTraces(rec.Spans, tracedJobs); err != nil {
			return nil, nil, err
		}
	}
	res.Correct = res.Failed == 0
	rec.Failed = res.Failed
	rec.fill(res.Metrics)
	return res, rec, nil
}

// metric is a named measurement before it is reported.
type metric struct {
	name  string
	unit  string
	value float64
}

// readsPerSecond is a job's input reads, each mate counted, over its map
// phase.
func readsPerSecond(in *inputs) func(*job) float64 {
	return func(j *job) float64 { return float64(in.reads) / j.mapPhase.Seconds() }
}

// endToEndMetrics are the medians over the untraced jobs; truth_recall is
// the same for every job whose SAM matched the unfiltered run's.
func endToEndMetrics(in *inputs, jobs []*job) []metric {
	vals := map[string]float64{
		"setup_s":      medianOf(jobs, func(j *job) float64 { return j.setup.Seconds() }),
		"reads_per_s":  medianOf(jobs, readsPerSecond(in)),
		"total_s":      medianOf(jobs, func(j *job) float64 { return (j.setup + j.mapPhase).Seconds() }),
		"peak_rss_mb":  medianOf(jobs, func(j *job) float64 { return float64(j.peakRSS) / 1e6 }),
		"truth_recall": jobs[0].recall,
	}
	out := make([]metric, len(endToEnd))
	for i, m := range endToEnd {
		out[i] = metric{m.name, m.unit, vals[m.name]}
	}
	return out
}

// medianOf is the median of f over jobs.
func medianOf(jobs []*job, f func(*job) float64) float64 {
	xs := make([]float64, len(jobs))
	for i, j := range jobs {
		xs[i] = f(j)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// div is a/b, or 0 when b is 0 (a layer the workload does not exercise).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runRecord describes a run next to its metrics: the machine, the inputs,
// and the modelled device clocks, kept in their own section so nothing
// sums them with wall time.
type runRecord struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Engine     string `json:"engine"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Inputs     struct {
		Bases      int   `json:"bases"`
		Contigs    int   `json:"contigs"`
		Reads      int   `json:"reads"`
		FASTQBytes int64 `json:"fastq_bytes"`
		GKIXBytes  int64 `json:"gkix_bytes"`
		SAMBytes   int64 `json:"sam_bytes"`
	} `json:"inputs"`
	Jobs        int                `json:"jobs"`
	Times       []jobTimes         `json:"times"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	Wall        map[string]value   `json:"wall"`
	Model       map[string]value   `json:"model,omitempty"`
	SelfSeconds map[string]float64 `json:"self_s,omitempty"`
	Spans       string             `json:"spans,omitempty"`
}

func newRecord(o options, in *inputs) *runRecord {
	rec := &runRecord{Workload: o.w.name, Seed: o.seed, Trace: o.trace, Engine: o.w.engine.String(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	rec.Inputs.Bases, rec.Inputs.Contigs, rec.Inputs.Reads = o.w.bases, o.w.contigs, in.reads
	rec.Inputs.FASTQBytes, rec.Inputs.GKIXBytes = in.fastqBytes, in.gkixBytes
	return rec
}

// jobTimes is one completed job's end-to-end figures.
type jobTimes struct {
	Traced  bool    `json:"traced"`
	Setup   float64 `json:"setup_s"`
	Map     float64 `json:"map_s"`
	PeakRSS float64 `json:"peak_rss_mb"`
}

func (rec *runRecord) add(j *job) {
	rec.Times = append(rec.Times, jobTimes{Traced: j.trace != nil, Setup: j.setup.Seconds(),
		Map: j.mapPhase.Seconds(), PeakRSS: float64(j.peakRSS) / 1e6})
}

// fill splits the reported metrics into the wall-time and model sections.
func (rec *runRecord) fill(metrics map[string]value) {
	rec.Wall = make(map[string]value)
	for name, v := range metrics {
		if v.Unit == modelUnit {
			if rec.Model == nil {
				rec.Model = make(map[string]value)
			}
			rec.Model[name] = v
		} else {
			rec.Wall[name] = v
		}
	}
}
