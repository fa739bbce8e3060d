package align

import (
	"math/rand"
	"testing"

	"repro/internal/dna"
	"repro/internal/lint"
)

// sprinkle overwrites a few positions of seq with 'N' or an arbitrary byte.
func sprinkle(rng *rand.Rand, seq []byte) {
	for k := rng.Intn(4); k > 0 && len(seq) > 0; k-- {
		c := byte('N')
		if rng.Intn(3) == 0 {
			c = byte(rng.Intn(256))
		}
		seq[rng.Intn(len(seq))] = c
	}
}

// checkAgainstOracle runs one pair through v and through the scalar oracles
// and fails on any difference in distance, decision or CIGAR.
func checkAgainstOracle(t *testing.T, v *Verifier, read, ref []byte, e int) {
	t.Helper()
	wantD, wantOK := oracleDistanceBanded(read, ref, e)
	al, alOK := oracleAlign(read, ref, e)
	if alOK != wantOK || (alOK && al.Distance != wantD) {
		t.Fatalf("oracles disagree on %q vs %q e=%d", read, ref, e)
	}
	d, ok := v.Verify(read, ref, e)
	if ok != wantOK || d != wantD {
		t.Fatalf("m=%d n=%d e=%d: Verify=(%d,%v), oracle (%d,%v)\nread %q\nref  %q",
			len(read), len(ref), e, d, ok, wantD, wantOK, read, ref)
	}
	if !ok {
		return
	}
	if got, want := string(v.CIGAR()), al.CIGAR(); got != want {
		t.Fatalf("m=%d n=%d e=%d: CIGAR %s, oracle %s\nread %q\nref  %q",
			len(read), len(ref), e, got, want, read, ref)
	}
	if got, want := string(v.CIGARCompat()), al.CIGARCompat(); got != want {
		t.Fatalf("m=%d n=%d e=%d: CIGARCompat %s, oracle %s", len(read), len(ref), e, got, want)
	}
}

// TestVerifierMatchesOracle pins the Verifier to the scalar banded DP and
// row-per-base traceback it replaced: every read length from 1 to 300 (one
// to five blocks), unequal lengths, thresholds 0 to 31, and 'N' and other
// non-ACGT bytes on either side. One Verifier serves every pair, so scratch
// reuse across growing and shrinking pairs is covered too.
func TestVerifierMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var v Verifier
	for m := 1; m <= 300; m++ {
		for rep := 0; rep < 6; rep++ {
			read := dna.RandomSeq(rng, m)
			e := rng.Intn(32)
			var ref []byte
			switch rep {
			case 0: // unrelated: mostly rejected, often by the cut-off
				ref = dna.RandomSeq(rng, max(0, m+rng.Intn(5)-2))
			case 1: // substitutions only, equal lengths
				ref = dna.MutateSubstitutions(rng, read, rng.Intn(e+2))
			default: // indels too, so lengths differ
				ref = dna.ApplyEdits(read, dna.RandomEdits(rng, m, rng.Intn(e+3), 0.5))
			}
			if rep >= 3 {
				sprinkle(rng, read)
				sprinkle(rng, ref)
			}
			checkAgainstOracle(t, &v, read, ref, e)
		}
	}
}

// TestVerifierTieBreaks covers low-complexity pairs, where many alignments
// tie and only the priority order decides the CIGAR.
func TestVerifierTieBreaks(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var v Verifier
	for trial := 0; trial < 2000; trial++ {
		m := 1 + rng.Intn(140)
		read := make([]byte, m)
		for i := range read {
			read[i] = "ACN"[rng.Intn(2+trial%2)]
		}
		e := rng.Intn(12)
		ref := dna.ApplyEdits(read, dna.RandomEdits(rng, m, rng.Intn(e+2), 0.7))
		for i := range ref {
			if ref[i] != 'A' && ref[i] != 'C' && ref[i] != 'N' {
				ref[i] = 'A'
			}
		}
		checkAgainstOracle(t, &v, read, ref, e)
	}
}

// TestVerifierReadReuse covers the match-vector reuse: one read against
// several windows in a row, and a read buffer overwritten in place between
// calls, must both verify exactly as a fresh Verifier would.
func TestVerifierReadReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var v Verifier
	buf := make([]byte, 120)
	for trial := 0; trial < 300; trial++ {
		dna.FillRandom(rng, buf)
		if trial%3 == 0 {
			sprinkle(rng, buf)
		}
		for w := 0; w < 4; w++ {
			ref := dna.ApplyEdits(buf, dna.RandomEdits(rng, len(buf), rng.Intn(8), 0.5))
			checkAgainstOracle(t, &v, buf, ref, 6)
		}
	}
}

// FuzzVerify: the Verifier never panics, its distance and decision agree
// with the plain quadratic DP, replaying its ops turns the read into the
// reference at a cost equal to the distance, and its CIGARs equal the
// oracle's.
func FuzzVerify(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGT"), []byte("ACGTACGTACGAACGTACGT"), uint8(2))
	f.Add([]byte("ACGTNACGT"), []byte("ACGTNNACGT"), uint8(1))
	f.Add([]byte("AAAAAAAAAAAAAAAAA"), []byte("TTTTTTTTTTTTTTTTT"), uint8(20))
	f.Add([]byte("ACACACACACACACACACACACACACACACAC"), []byte("CACACACACACACACACACACACACACACA"), uint8(5))
	f.Add([]byte{0x00, 0xFF, 0x7F, 0x80, 0x01}, []byte{0xFF, 0x00, 0x80, 0x7F, 0x02}, uint8(9))
	f.Add([]byte(""), []byte("ACG"), uint8(3))
	var v Verifier
	f.Fuzz(func(t *testing.T, rawRead, rawRef []byte, e8 uint8) {
		const maxLen = 400 // past six blocks; keeps the quadratic checks fast
		if len(rawRead) > maxLen || len(rawRef) > maxLen {
			return
		}
		// Most bytes land on ACGTN so similar pairs are common; the top of
		// the byte range stays as is, so arbitrary symbols occur too.
		symbols := func(raw []byte) []byte {
			out := make([]byte, len(raw))
			for i, c := range raw {
				out[i] = c
				if c < 250 {
					out[i] = "ACGTN"[c%5]
				}
			}
			return out
		}
		read, ref := symbols(rawRead), symbols(rawRef)
		e := int(e8%48) - 1 // -1 exercises the negative-budget rejection

		dp := DistanceDP(read, ref)
		d, ok := v.Verify(read, ref, e)
		if ok != (dp <= e) || (ok && d != dp) {
			t.Fatalf("Verify=(%d,%v), DP=%d, e=%d", d, ok, dp, e)
		}
		al, alOK := oracleAlign(read, ref, e)
		if alOK != ok {
			t.Fatalf("oracle accept %v, Verify accept %v", alOK, ok)
		}
		if !ok {
			return
		}
		ri, fi, cost := 0, 0, 0
		for _, op := range v.Ops() {
			switch op {
			case OpMatch, OpMismatch:
				if ri >= len(read) || fi >= len(ref) || (read[ri] == ref[fi]) != (op == OpMatch) {
					t.Fatalf("op %c at read %d ref %d does not replay", op, ri, fi)
				}
				if op == OpMismatch {
					cost++
				}
				ri, fi = ri+1, fi+1
			case OpIns:
				ri, cost = ri+1, cost+1
			case OpDel:
				fi, cost = fi+1, cost+1
			default:
				t.Fatalf("unknown op %c", op)
			}
		}
		if ri != len(read) || fi != len(ref) || cost != d {
			t.Fatalf("ops consume %d/%d read, %d/%d ref at cost %d; distance %d",
				ri, len(read), fi, len(ref), cost, d)
		}
		if got, want := string(v.CIGAR()), al.CIGAR(); got != want {
			t.Fatalf("CIGAR %s, oracle %s", got, want)
		}
		if got, want := string(v.CIGARCompat()), al.CIGARCompat(); got != want {
			t.Fatalf("CIGARCompat %s, oracle %s", got, want)
		}
	})
}

// TestVerifierZeroAllocs guards the steady state: once a Verifier has seen
// a pair of a given size, the distance pass, traceback and CIGAR rendering
// allocate nothing, on accepted and rejected pairs alike.
func TestVerifierZeroAllocs(t *testing.T) {
	for _, fn := range []string{"Verifier.run", "Verifier.loadRead", "Verifier.cell",
		"Verifier.Ops", "Verifier.traceback", "Verifier.CIGAR", "Verifier.CIGARCompat",
		"Verifier.renderCigar", "putRun", "myersStep", "rowValue"} {
		if !lint.IsNoAlloc("repro/internal/align", fn) {
			t.Fatalf("%s is not in lint.NoAllocRegistry; static and runtime guards have drifted", fn)
		}
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	rng := rand.New(rand.NewSource(23))
	read := dna.RandomSeq(rng, 250)
	sprinkle(rng, read)
	near := dna.ApplyEdits(read, dna.RandomEdits(rng, len(read), 6, 0.5))
	far := dna.RandomSeq(rng, 250)
	short := read[:100]
	shortNear := dna.MutateSubstitutions(rng, short, 5)

	var v Verifier
	v.Verify(read, near, 12) // sizes the scratch for the largest pair
	if allocs := testing.AllocsPerRun(200, func() {
		if _, ok := v.Verify(read, near, 12); !ok {
			panic("near pair rejected")
		}
		v.CIGAR()
		v.CIGARCompat()
		if _, ok := v.Verify(read, far, 12); ok {
			panic("unrelated pair accepted")
		}
		if _, ok := v.Verify(short, shortNear, 5); !ok {
			panic("short pair rejected")
		}
		v.CIGARCompat()
	}); allocs != 0 {
		t.Fatalf("Verifier allocated %.1f allocs/op in steady state, want 0", allocs)
	}
}
