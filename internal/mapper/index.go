// Package mapper implements a seed-and-extend short read mapper in the
// mould of mrFAST (Alkan et al. 2009), the tool the paper integrates
// GateKeeper-GPU into: a k-mer hash index over the reference, pigeonhole
// seeding (e+1 non-overlapping seeds, so any alignment with at most e edits
// preserves one seed exactly), candidate extension, optional pre-alignment
// filtering between seeding and verification, and bit-parallel (banded
// Myers) verification — the expensive stage the filter protects.
//
// The reference is multi-contig (mapper.Reference): a whole-genome FASTA's
// chromosomes live concatenated in one sequence with a contig table mapping
// concatenated positions back to (contig, contig-relative) coordinates. The
// index never spans a k-window across a contig boundary, candidate windows
// are rejected unless wholly inside one contig, and reported Mappings carry
// contig-relative coordinates.
//
// One mapping core serves every entry point: the paper's batch design
// (Section 3.5), which fills the filter's buffers with many reads and their
// candidate location indices, filters them in one round, then verifies the
// survivors. Each batch of Config.MaxReadsPerBatch reads is seeded in
// parallel, all its candidates go to the filter in one FilterCandidates (or
// FilterPairs) call, and the survivors are verified in parallel; the
// per-batch buffers are reused from batch to batch. Mapper.MapReads cuts a
// read slice into batches; Mapper.MapReadStream fills each batch from a
// channel as reads arrive, so a decoder can feed it without the read set
// ever being materialized. Mapper.MapPairs and Mapper.MapPairStream map
// both mates of an FR library as interleaved reads through the same core
// and resolve concordant pairs against an insert-size window, with
// concordance restricted to same-contig mates. Output and decision counters
// are byte-identical across entry points, batch sizes and pool widths;
// every stage clock is wall time.
package mapper

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"

	"repro/internal/dna"
	"repro/internal/metrics"
)

// Index is a k-mer index over a (multi-contig) reference in CSR (compressed
// sparse row) form: one flat positions array grouped by k-mer, addressed
// through a bucket-offset array. Every position whose k-window is fully
// defined (no 'N') and fully inside one contig is indexed; windows that
// would straddle a contig boundary of the concatenated sequence are never
// entered, so seed hits can only land inside a contig.
//
// The layout replaces the seed implementation's map[uint32][]int32: a map
// costs a hash probe plus pointer chases per lookup and fragments millions
// of small slices across the heap, while the CSR arrays are built once with
// a two-pass counting sort and answer every Lookup allocation-free with at
// most a short binary search inside one bucket. Buckets are the high bits
// of the packed k-mer key; within a bucket entries are sorted by full key
// (position-stable, so hit lists stay in ascending reference order exactly
// as the map layout appended them).
//
// Positions and bucket offsets are 64-bit, so a reference is bounded only
// by memory — a >2^31-base genome (the SneakySnake/SOAP3-dp evaluation
// scale) indexes like any other. An optional seed step (accel-align's
// kmer_step) indexes only the contig-relative window starts divisible by
// step, shrinking the index by ~step× at the cost of probing step
// consecutive read offsets per seed at lookup time; the step is recorded in
// the index so seeding stays in sync automatically, and step 1 is
// bit-identical to the unstepped build.
//
// The build is sharded per contig: contigs are assigned to contiguous
// shards balanced by base count, and both counting-sort passes run one
// goroutine per shard (each shard owns a private bucket-count array merged
// into per-shard cursors between the passes), so whole-genome build time
// scales with cores. Shard order equals contig order equals position order,
// making the arrays bit-identical to a sequential build regardless of shard
// count.
type Index struct {
	ref  *Reference
	seq  []byte // ref.Seq(), kept flat for the hot paths
	k    int
	step int // contig-relative sampling stride (1 = every window indexed)

	shift   uint     // key -> bucket: bucket = key >> shift
	offsets []uint64 // len nBuckets+1; bucket b spans keys/pos[offsets[b]:offsets[b+1]]
	keys    []uint32 // full k-mer key per indexed position, bucket-grouped, sorted within bucket
	pos     []int64  // reference position per indexed position, same order as keys

	distinct int // number of distinct indexed k-mers
}

// DefaultSeedLen is the default k-mer length, in mrFAST's 12-14 range.
const DefaultSeedLen = 13

// maxShardCountBytes bounds the total transient bucket-count memory of a
// sharded build (8 bytes per bucket per shard, freed once the build
// returns); when the bucket array is huge the shard count degrades
// gracefully rather than ballooning. The budget is sized for whole-genome
// work: at the 2^26-bucket cap a shard's counts are 512 MiB, so a 1 GiB
// budget keeps 2 shards alive on chromosome-scale references — small next
// to the keys/pos arrays such a reference allocates anyway (12 bytes per
// indexed position). Kept under 2^31 so the constant stays a valid int on
// 32-bit platforms.
const maxShardCountBytes = 1 << 30

// MaxSeedStep bounds the index's seed step: past ~2^20 the per-seed probe
// fan (step lookups per pigeonhole seed) would dwarf any realistic read
// length, so a larger value is always a caller bug.
const MaxSeedStep = 1 << 20

// NewIndex builds the index over one flat sequence, treated as a single
// contig. k must be in [8, 16] so a seed packs into one 32-bit key.
func NewIndex(seq []byte, k int) (*Index, error) {
	return NewReferenceIndex(SingleContig("", seq), k)
}

// NewReferenceIndex builds the index over a multi-contig reference, sharding
// the counting-sort build per contig. k must be in [8, 16]. Every indexable
// window is entered (seed step 1); NewSteppedReferenceIndex is the sampled
// form.
func NewReferenceIndex(r *Reference, k int) (*Index, error) {
	return buildReferenceIndex(r, k, 1, runtime.GOMAXPROCS(0))
}

// NewSteppedReferenceIndex builds the index with a seed step: only windows
// whose contig-relative start is divisible by step are indexed, shrinking
// the index ~step× (accel-align's kmer_step). The step is recorded in the
// index and Mapper.candidates compensates automatically by probing step
// consecutive read offsets per pigeonhole seed, so any exact seed whose
// surrounding k+step-1 bases are error-free still finds a sampled hit.
// step 1 is bit-identical to NewReferenceIndex.
func NewSteppedReferenceIndex(r *Reference, k, step int) (*Index, error) {
	return buildReferenceIndex(r, k, step, runtime.GOMAXPROCS(0))
}

// buildReferenceIndex is NewSteppedReferenceIndex with the shard-count cap
// exposed: the result is bit-identical for any maxShards (tests force
// several counts to prove it).
func buildReferenceIndex(r *Reference, k, step, maxShards int) (*Index, error) {
	if k < 8 || k > 16 {
		return nil, fmt.Errorf("mapper: seed length %d outside [8,16]", k)
	}
	if step < 1 || step > MaxSeedStep {
		return nil, fmt.Errorf("mapper: seed step %d outside [1,%d]", step, MaxSeedStep)
	}
	if r.Len() < k {
		return nil, fmt.Errorf("mapper: reference (%d) shorter than seed (%d)", r.Len(), k)
	}

	contigs := r.Contigs()
	shards := shardContigs(contigs, maxShards)

	// Pass 0 (parallel per shard): count indexable windows — k defined bases
	// wholly inside one contig, starting on a step-aligned contig-relative
	// offset (every window when step is 1).
	perShardN := make([]int, len(shards))
	forEachShard(shards, func(s int, sh contigShard) {
		n := 0
		for ci := sh.lo; ci < sh.hi; ci++ {
			valid := 0
			for i, b := range r.ContigSeq(ci) {
				if !dna.IsACGT(b) {
					valid = 0
					continue
				}
				valid++
				if valid >= k && (step == 1 || (i-k+1)%step == 0) {
					n++
				}
			}
		}
		perShardN[s] = n
	})
	n := 0
	for _, sn := range perShardN {
		n += sn
	}

	// Bucket geometry: use the full 2k key bits when small enough,
	// otherwise enough high bits for ~2x the entry count (about half an
	// entry per bucket), capped so the offsets array stays proportional to
	// the reference rather than to 4^k.
	bbits := 2 * k
	if lim := bits.Len(uint(n)) + 1; bbits > lim {
		bbits = lim
	}
	if bbits > 26 {
		bbits = 26
	}
	if bbits < 1 {
		bbits = 1
	}
	shift := uint(2*k - bbits)
	nBuckets := 1 << uint(bbits)

	// Re-shard if the per-shard count arrays would blow the memory budget:
	// fewer shards, same result (the build is shard-count invariant).
	if maxByBudget := maxShardCountBytes / (8 * nBuckets); len(shards) > maxByBudget {
		if maxByBudget < 1 {
			maxByBudget = 1
		}
		shards = shardContigs(contigs, maxByBudget)
	}

	idx := &Index{
		ref:     r,
		seq:     r.seq,
		k:       k,
		step:    step,
		shift:   shift,
		offsets: make([]uint64, nBuckets+1),
		keys:    make([]uint32, n),
		pos:     make([]int64, n),
	}

	// Pass 1 (parallel per shard): count entries per (shard, bucket).
	counts := make([][]uint64, len(shards))
	forEachShard(shards, func(s int, sh contigShard) {
		cs := make([]uint64, nBuckets)
		idx.countShard(sh.lo, sh.hi, cs)
		counts[s] = cs
	})

	// Merge: turn the per-shard counts into per-shard start cursors and the
	// global bucket offsets. Bucket b's entries are laid out shard by shard,
	// and shards hold contigs in reference order, so each bucket's entries
	// stay in ascending position order — exactly the sequential layout.
	// The merge itself is O(nBuckets·shards), which at whole-genome bucket
	// counts would serialize between the two parallel passes, so it runs
	// per bucket range: each range's entry total is summed in parallel, a
	// short prefix over the range totals gives every range its base, and
	// the cursor/offset fill proceeds in parallel from those bases —
	// bit-identical to the sequential walk.
	ranges := splitRange(nBuckets, runtime.GOMAXPROCS(0))
	rangeTotal := make([]uint64, len(ranges))
	forEachRange(ranges, func(ri int, lo, hi int) {
		var t uint64
		for b := lo; b < hi; b++ {
			for _, cs := range counts {
				t += cs[b]
			}
		}
		rangeTotal[ri] = t
	})
	base := uint64(0)
	for ri, t := range rangeTotal {
		rangeTotal[ri] = base
		base += t
	}
	forEachRange(ranges, func(ri int, lo, hi int) {
		running := rangeTotal[ri]
		for b := lo; b < hi; b++ {
			for _, cs := range counts {
				c := cs[b]
				cs[b] = running // becomes shard s's cursor for bucket b
				running += c
			}
			idx.offsets[b+1] = running
		}
	})

	// Pass 2 (parallel per shard): place (key, pos) at the shard's cursors.
	// Within a shard the reference scans left to right, keeping each
	// (shard, bucket) run in ascending position order.
	forEachShard(shards, func(s int, sh contigShard) {
		idx.placeShard(sh.lo, sh.hi, counts[s])
	})

	// Sort each bucket by full key, stably, so equal keys keep ascending
	// positions. When shift is 0 every bucket holds exactly one key and the
	// sort is a no-op. Buckets are independent; split them across workers.
	if shift != 0 {
		forEachRange(ranges, func(_ int, lo, hi int) {
			for b := lo; b < hi; b++ {
				blo, bhi := idx.offsets[b], idx.offsets[b+1]
				if bhi-blo > 1 {
					sortBucket(idx.keys[blo:bhi], idx.pos[blo:bhi])
				}
			}
		})
	}

	// Count distinct k-mers (diagnostics), one linear scan: equal keys are
	// contiguous (equal value implies equal bucket, and buckets are sorted).
	for i := range idx.keys {
		if i == 0 || idx.keys[i] != idx.keys[i-1] {
			idx.distinct++
		}
	}
	return idx, nil
}

// countShard rolls the 2-bit hash across each of the shard's contigs
// independently (the key and validity reset at contig starts, so no window
// straddles a boundary) and counts each indexable, step-aligned window into
// its bucket. The loop body is kept direct — no per-window callback —
// because the two counting-sort passes dominate the build.
func (x *Index) countShard(lo, hi int, counts []uint64) {
	k, step := x.k, x.step
	shift := x.shift
	mask := uint32(1)<<(2*k) - 1
	for ci := lo; ci < hi; ci++ {
		var key uint32
		valid := 0
		for i, b := range x.ref.ContigSeq(ci) {
			code, ok := dna.Code(b)
			if !ok {
				valid = 0
				key = 0
				continue
			}
			key = (key<<2 | uint32(code)) & mask
			valid++
			if valid >= k && (step == 1 || (i-k+1)%step == 0) {
				counts[key>>shift]++
			}
		}
	}
}

// placeShard is countShard's second pass: the same per-contig rolling hash,
// placing each (key, global position) at the shard's bucket cursors. The
// global position is the contig's offset (via the sanctioned ContigOff
// accessor) plus the window's contig-relative start — 64-bit end to end.
func (x *Index) placeShard(lo, hi int, cursor []uint64) {
	k, step := x.k, x.step
	shift := x.shift
	mask := uint32(1)<<(2*k) - 1
	for ci := lo; ci < hi; ci++ {
		off := x.ref.ContigOff(ci)
		var key uint32
		valid := 0
		for i, b := range x.ref.ContigSeq(ci) {
			code, ok := dna.Code(b)
			if !ok {
				valid = 0
				key = 0
				continue
			}
			key = (key<<2 | uint32(code)) & mask
			valid++
			if valid >= k && (step == 1 || (i-k+1)%step == 0) {
				bk := key >> shift
				cu := cursor[bk]
				x.keys[cu] = key
				x.pos[cu] = int64(off + i - k + 1)
				cursor[bk] = cu + 1
			}
		}
	}
}

// contigShard is a contiguous run of contigs built by one worker.
type contigShard struct{ lo, hi int }

// shardContigs splits the contig table into at most maxShards contiguous
// runs balanced by base count. Contiguity is what keeps the sharded build
// deterministic: shard order equals contig order equals position order.
func shardContigs(contigs []Contig, maxShards int) []contigShard {
	if maxShards > len(contigs) {
		maxShards = len(contigs)
	}
	if maxShards < 1 {
		maxShards = 1
	}
	total := 0
	for _, c := range contigs {
		total += c.Len
	}
	target := (total + maxShards - 1) / maxShards
	shards := make([]contigShard, 0, maxShards)
	lo, acc := 0, 0
	for i, c := range contigs {
		acc += c.Len
		if acc >= target && len(shards) < maxShards-1 {
			shards = append(shards, contigShard{lo, i + 1})
			lo, acc = i+1, 0
		}
	}
	if lo < len(contigs) {
		shards = append(shards, contigShard{lo, len(contigs)})
	}
	return shards
}

// bucketRange is a contiguous run of buckets processed by one worker.
type bucketRange struct{ lo, hi int }

// splitRange chops [0,n) into at most workers contiguous chunks.
func splitRange(n, workers int) []bucketRange {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (n + workers - 1) / workers
	ranges := make([]bucketRange, 0, workers)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		ranges = append(ranges, bucketRange{lo, hi})
	}
	return ranges
}

// forEachRange runs fn once per bucket range, concurrently.
func forEachRange(ranges []bucketRange, fn func(ri, lo, hi int)) {
	if len(ranges) == 1 {
		fn(0, ranges[0].lo, ranges[0].hi)
		return
	}
	var wg sync.WaitGroup
	for ri, r := range ranges {
		wg.Add(1)
		go func(ri, lo, hi int) {
			defer wg.Done()
			fn(ri, lo, hi)
		}(ri, r.lo, r.hi)
	}
	wg.Wait()
}

// forEachShard runs fn once per shard, concurrently.
func forEachShard(shards []contigShard, fn func(s int, sh contigShard)) {
	if len(shards) == 1 {
		fn(0, shards[0])
		return
	}
	var wg sync.WaitGroup
	for s, sh := range shards {
		wg.Add(1)
		go func(s int, sh contigShard) {
			defer wg.Done()
			fn(s, sh)
		}(s, sh)
	}
	wg.Wait()
}

// sortBucket stable-sorts a bucket's parallel key/pos arrays by key.
// Buckets average under one entry, so a binary insertion sort wins in the
// common case; a low-complexity reference (a long poly-A run, say) can
// still pile one bucket high with interleaved keys, where insertion's
// quadratic element moves would dominate the build — those buckets fall
// back to the general stable sort. Both keep equal keys in their original
// (ascending-position) order.
func sortBucket(keys []uint32, pos []int64) {
	if len(keys) > 64 {
		type kp struct {
			key uint32
			pos int64
		}
		tmp := make([]kp, len(keys))
		for i := range keys {
			tmp[i] = kp{keys[i], pos[i]}
		}
		sort.SliceStable(tmp, func(a, b int) bool { return tmp[a].key < tmp[b].key })
		for i := range tmp {
			keys[i], pos[i] = tmp[i].key, tmp[i].pos
		}
		return
	}
	for i := 1; i < len(keys); i++ {
		k, p := keys[i], pos[i]
		lo := sort.Search(i, func(j int) bool { return keys[j] > k })
		copy(keys[lo+1:i+1], keys[lo:i])
		copy(pos[lo+1:i+1], pos[lo:i])
		keys[lo] = k
		pos[lo] = p
	}
}

// K returns the seed length.
func (x *Index) K() int { return x.k }

// Step returns the seed step: 1 when every window is indexed, s when only
// windows starting at contig-relative offsets divisible by s are. Seeding
// probes Step consecutive read offsets per pigeonhole seed to compensate.
func (x *Index) Step() int { return x.step }

// Ref returns the indexed reference's concatenated sequence.
func (x *Index) Ref() []byte { return x.seq }

// Reference returns the indexed multi-contig reference.
func (x *Index) Reference() *Reference { return x.ref }

// Lookup returns the reference positions whose k-window equals seed, or nil
// when the seed contains an undefined base or has no hits. The returned
// slice is a view into the index's positions array — ascending, read-only,
// and produced without allocating. Positions address the concatenated
// sequence; every hit's k-window lies wholly inside one contig.
//
//gk:noalloc
func (x *Index) Lookup(seed []byte) []int64 {
	metrics.SeedLookups.Inc()
	if len(seed) != x.k {
		return nil
	}
	var key uint32
	for _, b := range seed {
		code, ok := dna.Code(b)
		if !ok {
			return nil
		}
		key = key<<2 | uint32(code)
	}
	bucket := key >> x.shift
	lo := int(x.offsets[bucket])
	hi := int(x.offsets[bucket+1])
	keys := x.keys
	// Equal range of key inside its (key-sorted) bucket; hand-rolled binary
	// searches keep the hot path free of closure allocations.
	first, j := lo, hi
	for first < j {
		m := int(uint(first+j) >> 1)
		if keys[m] < key {
			first = m + 1
		} else {
			j = m
		}
	}
	if first == hi || keys[first] != key {
		return nil
	}
	last, j := first+1, hi
	for last < j {
		m := int(uint(last+j) >> 1)
		if keys[m] <= key {
			last = m + 1
		} else {
			j = m
		}
	}
	return x.pos[first:last]
}

// DistinctKmers returns the number of distinct indexed k-mers (diagnostics).
func (x *Index) DistinctKmers() int { return x.distinct }

// Entries returns the total number of indexed positions (diagnostics).
func (x *Index) Entries() int { return len(x.pos) }
