package align

// Op is one alignment operation in CIGAR vocabulary.
type Op byte

// Alignment operations ('=' match, 'X' mismatch, 'I' insertion into the
// read, 'D' deletion from the read).
const (
	OpMatch    Op = '='
	OpMismatch Op = 'X'
	OpIns      Op = 'I'
	OpDel      Op = 'D'
)

// Ops returns the alignment of the last pair Verify accepted, one op per
// alignment column in read-major order, or nil when it rejected the pair.
// Among equally short alignments it takes, walking back from the end, a
// diagonal step first, then an insertion, then a deletion. The slice is the
// Verifier's own and is overwritten by the next Verify.
//
//gk:noalloc
func (v *Verifier) Ops() []Op {
	if v.ok && v.ops == nil {
		v.traceback()
	}
	return v.ops
}

// traceback walks from (m, n) back to (0, 0) over the cells the distance
// pass stored, filling the op buffer from its end.
//
//gk:noalloc
func (v *Verifier) traceback() {
	a, b := v.pattern, v.ref
	i, j := v.m, v.n
	cur := v.dist
	w := len(v.opBuf)
	for i > 0 || j > 0 {
		w--
		if i > 0 && j > 0 {
			// Equal bytes always give D[i-1][j-1] = D[i][j] (neighbouring
			// cells differ by at most one), so the diagonal wins without a
			// lookup; the path's cells are exact, lying on an alignment
			// within the budget.
			if a[i-1] == b[j-1] {
				v.opBuf[w] = OpMatch
				i, j = i-1, j-1
				continue
			}
			if d := v.cell(i-1, j-1); d+1 == cur {
				v.opBuf[w] = OpMismatch
				i, j, cur = i-1, j-1, d
				continue
			}
		}
		if i > 0 {
			// Consumed a read base without a reference base.
			if up := v.cell(i-1, j); up+1 == cur {
				v.opBuf[w] = OpIns
				i, cur = i-1, up
				continue
			}
		}
		if j > 0 {
			if left := v.cell(i, j-1); left+1 == cur {
				v.opBuf[w] = OpDel
				j, cur = j-1, left
				continue
			}
		}
		panic("align: traceback left the stored band")
	}
	v.ops = v.opBuf[w:]
}

// CIGAR renders the last accepted alignment run-length encoded, extended
// style (=/X/I/D), into the Verifier's buffer; "*" for an empty alignment.
// Use CIGARCompat for the classic M-style string. The bytes are overwritten
// by the next Verify.
//
//gk:noalloc
func (v *Verifier) CIGAR() []byte { return v.renderCigar(false) }

// CIGARCompat renders the classic SAM CIGAR, where matches and mismatches
// both appear as 'M'.
//
//gk:noalloc
func (v *Verifier) CIGARCompat() []byte { return v.renderCigar(true) }

//gk:noalloc
func (v *Verifier) renderCigar(compat bool) []byte {
	if !v.ok {
		return nil
	}
	ops := v.Ops()
	buf := v.cigar
	if len(ops) == 0 {
		buf[0] = '*'
		return buf[:1]
	}
	w := 0
	run, runLen := opClass(ops[0], compat), 1
	for _, op := range ops[1:] {
		if c := opClass(op, compat); c != run {
			w = putRun(buf, w, runLen, run)
			run, runLen = c, 1
			continue
		}
		runLen++
	}
	return buf[:putRun(buf, w, runLen, run)]
}

//gk:noalloc
func opClass(op Op, compat bool) byte {
	if compat && (op == OpMatch || op == OpMismatch) {
		return 'M'
	}
	return byte(op)
}

// putRun writes runLen in decimal followed by class at buf[w:] and returns
// the new end. strconv.AppendInt would do, but the noalloc contract admits
// no append and no strconv, and reserve sized buf for the worst case.
//
//gk:noalloc
func putRun(buf []byte, w, runLen int, class byte) int {
	digits := 1
	for x := runLen; x >= 10; x /= 10 {
		digits++
	}
	for k := w + digits - 1; k >= w; k-- {
		buf[k] = byte('0' + runLen%10)
		runLen /= 10
	}
	buf[w+digits] = class
	return w + digits + 1
}
