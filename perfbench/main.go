// Command perfbench is the repository's end-to-end benchmark: FASTA and
// FASTQ in, SAM out, index build or GKIX load included. It generates seeded
// inputs, maps them once without a filter for the correctness gate, then
// repeats the filtered job for the measuring time and prints the metrics
// as the last line of its output. README.md describes the workloads and
// the metrics; run.sh builds and runs it.
//
// Usage:
//
//	perfbench --workload se-human --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: se-human, se-repeats or pe-index")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	dir := flag.String("dir", ".bench_build", "directory for scratch inputs, traces and run records")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	// One process at machine width: StreamWorkers = 0 and the CPU engine's
	// core count both resolve to GOMAXPROCS.
	runtime.GOMAXPROCS(runtime.NumCPU())

	res, rec, err := run(options{w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, dir: *dir, minJobs: 3})
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(*dir, "records", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if err := writeRecord(path, rec); err != nil {
		fatal(err)
	}
	if err := report(os.Stdout, res, rec); err != nil {
		fatal(err)
	}
}

// report prints the run record on one line, then the result as the last
// line of output.
func report(w io.Writer, res *result, rec *runRecord) error {
	for _, v := range []any{map[string]*runRecord{"run_record": rec}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
			return err
		}
	}
	return nil
}

func writeRecord(path string, rec *runRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return writeFile(path, func(bw *bufio.Writer) error {
		enc := json.NewEncoder(bw)
		enc.SetIndent("", "  ")
		return enc.Encode(rec)
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
