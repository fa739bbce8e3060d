package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// declared is the metric list BENCHMARK.json fixes for one kind of run.
type declared []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDeclared(t *testing.T) (endToEnd, perLayer declared, names []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd declared `json:"end_to_end"`
		PerLayer declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	return b.EndToEnd, b.PerLayer, names
}

// tiny shrinks a workload to smoke-test size, keeping its pipeline.
func tiny(w workload) workload {
	w.bases, w.reads = 300_000, 600
	return w
}

// TestWorkloadsMatchDeclaration checks that BENCHMARK.json and the program
// name the same workloads.
func TestWorkloadsMatchDeclaration(t *testing.T) {
	_, _, names := loadDeclared(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(names), len(workloads))
	}
	for _, name := range names {
		if _, err := lookupWorkload(name); err != nil {
			t.Error(err)
		}
	}
}

// TestSmoke runs every workload once untraced and once traced on tiny
// inputs: each must pass the correctness gate, and the printed last line
// must carry exactly the metrics BENCHMARK.json declares, with its units.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer, _ := loadDeclared(t)
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				dir := t.TempDir()
				res, rec, err := run(options{w: w, seed: 7, seconds: time.Millisecond, trace: trace, dir: dir, minJobs: 1})
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d failures=%v",
						trace, res.Correct, res.Attempted, res.Failed, rec.Failures)
				}
				want := endToEnd
				if trace {
					want = perLayer
					checkSpans(t, rec.Spans)
				}
				checkLastLine(t, res, rec, want)
			}
		})
	}
}

// checkLastLine prints the report and checks its last line.
func checkLastLine(t *testing.T, res *result, rec *runRecord, want declared) {
	t.Helper()
	var out bytes.Buffer
	if err := report(&out, res, rec); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Fatalf("last line keys: %s", lines[len(lines)-1])
	}
	var metrics map[string]value
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(metrics), len(want))
	}
	for _, d := range want {
		m, ok := metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s printed with unit %q, declared %q", d.Name, m.Unit, d.Unit)
		}
	}
}

// checkSpans checks that the traced run wrote well-formed spans naming
// its run, including the layers every workload exercises.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanRecord
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.Run == "" || s.ID < 1 || s.End < s.Start {
			t.Errorf("malformed span %+v", s)
		}
		seen[s.Name] = true
	}
	for _, name := range []string{"job", "setup", "dna.fasta", "gkgpu.set_reference", "map", "dna.fastq"} {
		if !seen[name] {
			t.Errorf("no %s span in %s", name, path)
		}
	}
}

// TestSelfTimes checks that a span's self time excludes the union of its
// children, overlapping children counted once, and that an aggregate
// span's self time is its busy time.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "map", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "call", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "call", Start: 20 * ms, End: 40 * ms},
		{ID: 4, Parent: 1, Name: "call", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 1, Name: "decode", Start: 0, End: 100 * ms, Busy: 7 * ms, Calls: 3},
	}
	got := selfTimes(spans[:4])
	if got["map"] != 60*ms {
		t.Errorf("map self time %v, want 60ms", got["map"])
	}
	if got["call"] != 70*ms {
		t.Errorf("call self time %v, want 70ms", got["call"])
	}
	if got := selfTimes(spans)["decode"]; got != 7*ms {
		t.Errorf("aggregate self time %v, want its busy 7ms", got)
	}
}
