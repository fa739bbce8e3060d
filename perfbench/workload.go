package main

import "fmt"

// mode is the mapper entry point a workload drives.
type mode int

const (
	// oneShot decodes the whole FASTQ, then makes a single MapReads call.
	oneShot mode = iota
	// readStream feeds decoded reads through a channel into MapReadStream.
	readStream
	// pairStream feeds decoded mate pairs into MapPairStream.
	pairStream
)

// engineKind is the pre-alignment filter a workload maps with.
type engineKind int

const (
	noFilter  engineKind = iota // the unfiltered reference run
	gpuEngine                   // simulated GPU, one device
	cpuEngine                   // CPU engine, GOMAXPROCS cores
)

func (k engineKind) String() string {
	switch k {
	case gpuEngine:
		return "gpu"
	case cpuEngine:
		return "cpu"
	}
	return "none"
}

// workload is one set of seeded inputs plus the pipeline that maps them.
// Every workload maps 100 bp Illumina-profile reads at e = 5 with CIGARs
// (Traceback on, as gkmap -sam does) and writes SAM.
type workload struct {
	name    string
	mode    mode
	engine  engineKind
	contigs int
	bases   int  // total reference length over all contigs
	reads   int  // single-end reads, or mate pairs for pairStream
	repeats bool // stamp the interspersed repeat family over the reference
	// loadIndex serializes the index to a GKIX file before timing and
	// loads it during set-up instead of building it.
	loadIndex bool
}

const (
	readLen = 100
	maxE    = 5
	// insertMean and insertStd shape the simulated FR library; the mapper
	// estimates its concordance window from the data.
	insertMean = 400
	insertStd  = 40
)

// workloads lists the benchmark's workloads; README.md says why each
// exists and gives the figures behind its size.
var workloads = []workload{
	// Verification does most of the work and the filter little.
	{name: "se-human", mode: oneShot, engine: gpuEngine,
		contigs: 4, bases: 4_000_000, reads: 40_000},
	// Seeding and filtering do most of the work: the filter pays here.
	{name: "se-repeats", mode: readStream, engine: gpuEngine,
		contigs: 4, bases: 4_000_000, reads: 8_000, repeats: true},
	// Index load, the CPU engine inline, two-file decode, concordance.
	{name: "pe-index", mode: pairStream, engine: cpuEngine,
		contigs: 8, bases: 8_000_000, reads: 20_000, loadIndex: true},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
