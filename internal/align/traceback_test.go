package align

import (
	"math/rand"
	"testing"

	"repro/internal/dna"
)

// The Align tests pin the Verifier's traceback, which took over from the
// row-per-base Align.

func TestAlignExactMatch(t *testing.T) {
	a := []byte("ACGTACGT")
	var v Verifier
	d, ok := v.Verify(a, a, 2)
	if !ok || d != 0 {
		t.Fatalf("exact: d=%d ok=%v", d, ok)
	}
	if got := string(v.CIGAR()); got != "8=" {
		t.Fatalf("CIGAR = %s", got)
	}
	if got := string(v.CIGARCompat()); got != "8M" {
		t.Fatalf("CIGARCompat = %s", got)
	}
}

func TestAlignKnownCases(t *testing.T) {
	cases := []struct {
		a, b  string
		dist  int
		cigar string
	}{
		{"ACGT", "AGGT", 1, "1=1X2="},
		{"ACGT", "AGT", 1, "1=1I2="},
		{"AGT", "ACGT", 1, "1=1D2="},
		{"ACGT", "ACGTT", 1, "3=1D1="}, // the priority order fixes the tie
		{"ACGTT", "ACGT", 1, "3=1I1="},
	}
	var v Verifier
	for _, c := range cases {
		d, ok := v.Verify([]byte(c.a), []byte(c.b), 3)
		if !ok {
			t.Fatalf("Verify(%q,%q) failed", c.a, c.b)
		}
		if d != c.dist {
			t.Errorf("Verify(%q,%q) distance %d, want %d", c.a, c.b, d, c.dist)
		}
		if got := string(v.CIGAR()); got != c.cigar {
			t.Errorf("Verify(%q,%q) CIGAR %s, want %s", c.a, c.b, got, c.cigar)
		}
	}
}

func TestAlignDistanceAgreesWithDP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var v Verifier
	for trial := 0; trial < 200; trial++ {
		n := 20 + rng.Intn(120)
		a := dna.RandomSeq(rng, n)
		b := dna.ApplyEdits(a, dna.RandomEdits(rng, n, rng.Intn(8), 0.5))
		want := DistanceDP(a, b)
		maxDist := 10
		d, ok := v.Verify(a, b, maxDist)
		if want <= maxDist {
			if !ok || d != want {
				t.Fatalf("trial %d: Verify=(%d,%v), DP=%d", trial, d, ok, want)
			}
		} else if ok {
			t.Fatalf("trial %d: Verify accepted distance %d beyond budget", trial, d)
		}
	}
}

func TestAlignOpsReconstructSequences(t *testing.T) {
	// Replaying the traceback ops over the read must consume exactly the
	// read and the reference, and the op classes must match reality.
	rng := rand.New(rand.NewSource(2))
	var v Verifier
	for trial := 0; trial < 100; trial++ {
		n := 30 + rng.Intn(100)
		a := dna.RandomSeq(rng, n)
		b := dna.ApplyEdits(a, dna.RandomEdits(rng, n, rng.Intn(6), 0.6))
		d, ok := v.Verify(a, b, 8)
		if !ok {
			continue
		}
		ai, bi, edits := 0, 0, 0
		for _, op := range v.Ops() {
			switch op {
			case OpMatch, OpMismatch:
				if a[ai] == b[bi] != (op == OpMatch) {
					t.Fatalf("trial %d: op %c misclassifies a[%d]=%c vs b[%d]=%c",
						trial, op, ai, a[ai], bi, b[bi])
				}
				if op == OpMismatch {
					edits++
				}
				ai++
				bi++
			case OpIns:
				ai++
				edits++
			case OpDel:
				bi++
				edits++
			default:
				t.Fatalf("unknown op %c", op)
			}
		}
		if ai != len(a) || bi != len(b) {
			t.Fatalf("trial %d: ops consumed %d/%d read and %d/%d ref", trial, ai, len(a), bi, len(b))
		}
		if edits != d {
			t.Fatalf("trial %d: ops imply %d edits, distance says %d", trial, edits, d)
		}
	}
}

func TestAlignRejections(t *testing.T) {
	var v Verifier
	if _, ok := v.Verify([]byte("AAAA"), []byte("TTTT"), 2); ok {
		t.Fatal("4 mismatches accepted with budget 2")
	}
	if v.Ops() != nil || v.CIGAR() != nil {
		t.Fatal("a rejected pair left an alignment behind")
	}
	if _, ok := v.Verify([]byte("AAAAAAA"), []byte("A"), 3); ok {
		t.Fatal("length gap beyond band accepted")
	}
	if _, ok := v.Verify([]byte("ACGT"), []byte("ACGT"), -1); ok {
		t.Fatal("negative budget accepted")
	}
}

func TestAlignEmptyInputs(t *testing.T) {
	var v Verifier
	cases := []struct {
		read, ref string
		e, dist   int
		cigar     string
	}{
		{"", "ACG", 3, 3, "3D"},
		{"ACG", "", 3, 3, "3I"},
		{"", "", 0, 0, "*"},
	}
	for _, c := range cases {
		d, ok := v.Verify([]byte(c.read), []byte(c.ref), c.e)
		if got := string(v.CIGAR()); !ok || d != c.dist || got != c.cigar {
			t.Fatalf("Verify(%q,%q): d=%d ok=%v CIGAR %s, want d=%d %s", c.read, c.ref, d, ok, got, c.dist, c.cigar)
		}
	}
}
