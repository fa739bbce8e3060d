package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// modelUnit labels the cuda cost model's clocks. They are modelled device
// time, not measured time, and the distinct unit keeps any tool from
// summing them with wall seconds.
const modelUnit = "model-s"

// jobTrace is what a traced job's spans say, per span name.
type jobTrace struct {
	dur   map[string]time.Duration // summed span durations
	self  map[string]time.Duration // summed self times
	busy  map[string]time.Duration // summed busy time of aggregate spans
	calls []float64                // filter call durations, microseconds
}

func traceOf(j *job) *jobTrace {
	spans := j.trace.snapshot()
	t := &jobTrace{dur: make(map[string]time.Duration), busy: make(map[string]time.Duration),
		self: selfTimes(spans)}
	for _, s := range spans {
		t.dur[s.Name] += s.dur()
		t.busy[s.Name] += s.Busy
		if s.Name == "gkgpu.filter_candidates" || s.Name == "gkgpu.filter_pairs" {
			t.calls = append(t.calls, float64(s.dur())/float64(time.Microsecond))
		}
	}
	return t
}

// layerValues is a traced job's per-layer metrics in report order. A
// metric whose layer the workload does not use (index.load_s on a build,
// per-call filter figures on the candidate stream, concordance on
// single-end reads) reads 0. Stats-sourced clocks are the program's own:
// wall on the one-shot path, worker-busy sums on the streaming paths.
func layerValues(w workload, in *inputs, j *job) []metric {
	t := traceOf(j)
	st, eng := j.st, j.eng
	// The filter's time is its summed call spans where the engine is
	// wrapped, and the engine's own wall clock on the candidate stream,
	// where it is not.
	filterS := (t.dur["gkgpu.filter_candidates"] + t.dur["gkgpu.filter_pairs"]).Seconds()
	if w.mode == readStream {
		filterS = eng.WallSeconds
	}
	fastqS := t.busy["dna.fastq"].Seconds()
	samS := (t.dur["mapper.write_sam"] + t.dur["mapper.write_paired_sam"]).Seconds()
	mapS := j.mapPhase.Seconds()
	return []metric{
		{"dna.fasta_s", "s", t.dur["dna.fasta"].Seconds()},
		{"dna.fastq_s", "s", fastqS},
		{"dna.fastq_mb_per_s", "MB/s", div(float64(in.fastqBytes)/1e6, fastqS)},
		{"index.build_s", "s", t.self["index.build"].Seconds()},
		{"index.load_s", "s", t.self["index.load"].Seconds()},
		{"index.entries", "count", float64(j.entries)},
		{"gkgpu.set_reference_s", "s", t.dur["gkgpu.set_reference"].Seconds()},
		{"seed.s", "s", st.SeedSeconds},
		{"seed.candidates_per_read", "1/read", div(float64(st.CandidatePairs), float64(st.Reads))},
		{"filter.s", "s", filterS},
		{"filter.pairs_per_s", "1/s", div(float64(st.CandidatePairs), filterS)},
		{"filter.call_p50_us", "us", percentile(t.calls, 0.50)},
		{"filter.call_p99_us", "us", percentile(t.calls, 0.99)},
		{"filter.call_samples", "count", float64(len(t.calls))},
		{"filter.reduction", "ratio", st.Reduction()},
		{"filter.undefined_frac", "ratio", div(float64(st.UndefinedPairs), float64(st.CandidatePairs))},
		{"filter.retries", "count", float64(eng.Retries)},
		{"filter.redispatches", "count", float64(eng.Redispatches)},
		{"filter.devices_lost", "count", float64(eng.DevicesLost)},
		{"model.kernel_s", modelUnit, eng.KernelSeconds},
		{"model.filter_s", modelUnit, eng.FilterSeconds},
		{"verify.s", "s", st.VerifySeconds},
		{"verify.pairs", "count", float64(st.VerificationPairs)},
		{"verify.pairs_per_s", "1/s", div(float64(st.VerificationPairs), st.VerifySeconds)},
		{"verify.yield", "ratio", div(float64(st.Mappings), float64(st.VerificationPairs))},
		{"sam.s", "s", samS},
		{"sam.mb_per_s", "MB/s", div(float64(j.samBytes)/1e6, samS)},
		{"map.s", "s", mapS},
		{"map.cpu_util", "ratio", div(j.cpu.Seconds(), mapS*float64(runtime.GOMAXPROCS(0)))},
		{"map.alloc_bytes_per_read", "B/read", div(float64(j.alloc), float64(in.reads))},
		{"map.gc_cycles", "count", float64(j.gcs)},
		{"pairs.concordant_frac", "ratio", div(float64(st.ConcordantPairs), float64(st.ReadPairs))},
	}
}

// layerMetrics is each per-layer metric's median over the traced jobs.
func layerMetrics(w workload, in *inputs, jobs []*job) []metric {
	per := make([][]metric, len(jobs))
	for i, j := range jobs {
		per[i] = layerValues(w, in, j)
	}
	out := per[0]
	for mi := range out {
		xs := make([]float64, len(jobs))
		for i := range jobs {
			xs[i] = per[i][mi].value
		}
		out[mi].value = median(xs)
	}
	return out
}

// medianSelfTimes is each span name's median self time over the jobs.
func medianSelfTimes(jobs []*job) map[string]float64 {
	per := make(map[string][]float64)
	for _, j := range jobs {
		for name, d := range selfTimes(j.trace.snapshot()) {
			per[name] = append(per[name], d.Seconds())
		}
	}
	out := make(map[string]float64, len(per))
	for name, xs := range per {
		out[name] = median(xs)
	}
	return out
}

// writeTraces writes every traced job's spans as JSON Lines to path.
func writeTraces(path string, jobs []*job) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return writeFile(path, func(bw *bufio.Writer) error {
		enc := json.NewEncoder(bw)
		for _, j := range jobs {
			for _, s := range j.trace.snapshot() {
				if err := enc.Encode(s.record(j.trace.run)); err != nil {
					return err
				}
			}
		}
		return nil
	})
}
