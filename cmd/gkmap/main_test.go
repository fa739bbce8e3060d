package main

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gkgpu"
)

func TestWriteSAMAtomicSuccess(t *testing.T) {
	dir := t.TempDir()
	dest := filepath.Join(dir, "out.sam")
	const payload = "@HD\tVN:1.6\nr0\t0\tchr1\t1\t255\t4M\t*\t0\t0\tACGT\t*\n"
	if err := writeSAMAtomic(dest, func(w io.Writer) error {
		_, err := io.WriteString(w, payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dest)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != payload {
		t.Fatalf("destination content drifted: %q", got)
	}
	assertNoTempFiles(t, dir, "out.sam")
}

func TestWriteSAMAtomicFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	dest := filepath.Join(dir, "out.sam")
	boom := errors.New("mapper: streaming pre-alignment filter died")
	err := writeSAMAtomic(dest, func(w io.Writer) error {
		// Partial output followed by failure — the classic truncation shape.
		if _, werr := io.WriteString(w, "@HD\tVN:1.6\n"); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("writer error not surfaced: %v", err)
	}
	if _, serr := os.Stat(dest); !os.IsNotExist(serr) {
		t.Fatalf("failed write left a destination file: %v", serr)
	}
	assertNoTempFiles(t, dir, "out.sam")
}

func TestWriteSAMAtomicOverwriteSurvivesFailure(t *testing.T) {
	// A failed rewrite must leave the previous good artifact untouched.
	dir := t.TempDir()
	dest := filepath.Join(dir, "out.sam")
	if err := os.WriteFile(dest, []byte("old good sam\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	if err := writeSAMAtomic(dest, func(w io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("writer error not surfaced: %v", err)
	}
	got, err := os.ReadFile(dest)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old good sam\n" {
		t.Fatalf("failed rewrite damaged the existing artifact: %q", got)
	}
	assertNoTempFiles(t, dir, "out.sam")
}

func assertNoTempFiles(t *testing.T, dir, base string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), base+".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

func TestInjectFaultsWiring(t *testing.T) {
	cctx := cuda.NewUniformContext(3, cuda.GTX1080Ti())
	injectFaults(cctx, 0, 0, 42, 0) // no-op configuration
	for i, d := range cctx.Devices() {
		if d.FaultPlan() != nil {
			t.Fatalf("device %d got a plan from a no-op config", i)
		}
	}
	injectFaults(cctx, 0.05, 0, 42, 4)
	for i, d := range cctx.Devices() {
		if d.FaultPlan() == nil {
			t.Fatalf("device %d missing its fault plan", i)
		}
	}
	// Device 0 carries the death: drive launches until it dies; the rate-only
	// devices never die.
	plan := cctx.Device(0).FaultPlan()
	lc := cuda.LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}
	died := false
	for i := 0; i < 16 && !died; i++ {
		if err := cctx.Device(0).Launch(lc, 32, func(worker, tid int) {}); errors.Is(err, cuda.ErrDeviceLost) {
			died = true
		}
	}
	if !died || !plan.Dead() {
		t.Fatal("-fault-die did not kill device 0")
	}
	if cctx.Device(1).FaultPlan().Dead() || cctx.Device(2).FaultPlan().Dead() {
		t.Fatal("death leaked onto a rate-only device")
	}
}

func TestFaultedEngineMatchesCleanDecisions(t *testing.T) {
	// The CLI-level identity claim behind -fault-rate/-fault-die: the engine
	// configuration gkmap builds, with plans attached exactly as injectFaults
	// attaches them, makes bit-identical decisions while a device survives,
	// on the pair stream and on the index-named batch path alike.
	mk := func() (*gkgpu.Engine, *cuda.Context) {
		cctx := cuda.NewUniformContext(2, cuda.GTX1080Ti())
		eng, err := gkgpu.NewEngine(gkgpu.Config{
			ReadLen: 100, MaxE: 5, Encoding: gkgpu.EncodeOnHost,
			MaxBatchPairs: 1 << 16, StreamBatchPairs: 64,
		}, cctx)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		return eng, cctx
	}
	pairs := make([]gkgpu.Pair, 1500)
	for i := range pairs {
		read := make([]byte, 100)
		ref := make([]byte, 100)
		for j := range read {
			read[j] = "ACGT"[(i+j)%4]
			ref[j] = "ACGT"[(i+j+i%3)%4]
		}
		pairs[i] = gkgpu.Pair{Read: read, Ref: ref}
	}
	drain := func(eng *gkgpu.Engine) []gkgpu.Result {
		in := make(chan gkgpu.Pair, 64)
		out, err := eng.FilterStream(context.Background(), in, 5)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer close(in)
			for _, p := range pairs {
				in <- p
			}
		}()
		res := make([]gkgpu.Result, 0, len(pairs))
		for r := range out {
			res = append(res, r)
		}
		return res
	}

	clean, _ := mk()
	want := drain(clean)
	faulty, cctx := mk()
	injectFaults(cctx, 0.05, 0, 42, 3)
	got := drain(faulty)
	if err := faulty.StreamErr(); err != nil {
		t.Fatalf("faulted stream terminal with a survivor: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("faulted stream returned %d results, clean %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("decision %d drifted under faults: %+v vs %+v", i, got[i], want[i])
		}
	}
	if s := faulty.Stats(); s.DevicesLost != 1 {
		t.Fatalf("DevicesLost = %d, want 1", s.DevicesLost)
	}

	// The index-named batch path gkmap maps through: one FilterCandidates
	// call per mapping batch, so device 0 dies partway through the run.
	var refSeq []byte
	for _, p := range pairs {
		refSeq = append(refSeq, p.Ref...)
	}
	filterBatches := func(eng *gkgpu.Engine) []gkgpu.Result {
		if err := eng.SetReference(refSeq); err != nil {
			t.Fatal(err)
		}
		var res []gkgpu.Result
		const batch = 250
		for lo := 0; lo < len(pairs); lo += batch {
			reads := make([][]byte, 0, batch)
			var cands []gkgpu.Candidate
			for i := lo; i < lo+batch; i++ {
				id := int64(len(reads))
				reads = append(reads, pairs[i].Read)
				cands = append(cands,
					gkgpu.Candidate{ReadID: id, Pos: int64(i * 100)},
					gkgpu.Candidate{ReadID: id, Pos: int64((i * 37 % len(pairs)) * 100)})
			}
			r, err := eng.FilterCandidates(reads, cands, 5)
			if err != nil {
				t.Fatalf("faulted FilterCandidates failed with a survivor: %v", err)
			}
			res = append(res, r...)
		}
		return res
	}
	clean, _ = mk()
	want = filterBatches(clean)
	faulty, cctx = mk()
	injectFaults(cctx, 0.05, 0, 42, 3)
	got = filterBatches(faulty)
	if len(got) != len(want) {
		t.Fatalf("faulted FilterCandidates returned %d results, clean %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("candidate decision %d drifted under faults: %+v vs %+v", i, got[i], want[i])
		}
	}
	if s := faulty.Stats(); s.DevicesLost != 1 {
		t.Fatalf("FilterCandidates DevicesLost = %d, want 1", s.DevicesLost)
	}
}
