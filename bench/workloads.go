package main

import "fmt"

// dataset sizes one simulated read set. Everything but the seed is fixed
// here, so two runs with one seed correct byte-identical inputs.
type dataset struct {
	Name      string
	GenomeLen int
	ReadLen   int
	Coverage  float64
	K         int // k-mer length the program is run with on this dataset
}

func (d dataset) reads() int { return int(float64(d.GenomeLen) * d.Coverage / float64(d.ReadLen)) }

// workload is one program configuration on one dataset. Each run starts
// fresh child processes, so RSS and GC state never leak between runs.
type workload struct {
	Name string
	Why  string
	Data dataset

	Ranks       int
	LookupBatch int
	Workers     int

	// Batch workloads run reptile-correct to completion, at least MinReps
	// times. TCP runs one OS process per rank over loopback sockets; Cached
	// gives every run a snapshot cache that a set-up run populated.
	TCP     bool
	Cached  bool
	MinReps int

	// Served workloads keep reptile-serve resident and drive it closed-loop:
	// each of Clients connections sends its next chunk of ChunkReads reads
	// only after the previous answer arrived. The first WarmupChunks answers
	// of every client are discarded.
	Served       bool
	Clients      int
	ChunkReads   int
	WarmupChunks int
}

// The table PackedStore sizes to a power of two at load <= 0.8, 12 bytes a
// slot, so a frozen spectrum is 96 or 192 MiB around this genome size. 3.6 Mb
// puts both the np=1 and the np=2 tables 7% past the 192 MiB step: 3.5x the
// 54 MiB last-level cache of the reference host. 15X is the lowest coverage
// at which the default solidity thresholds still keep the genomic k-mers.
var (
	small = dataset{Name: "small", GenomeLen: 200_000, ReadLen: 102, Coverage: 16, K: 12}
	large = dataset{Name: "large", GenomeLen: 3_600_000, ReadLen: 102, Coverage: 15, K: 14}
)

var workloads = []workload{
	{
		Name: "batch_cold_large",
		Why:  "file-to-file batch job with no cache: parse, extraction, HashStore fold, exchange and freeze dominate, out of LLC",
		Data: large, Ranks: 2, LookupBatch: 32, MinReps: 1,
	},
	{
		Name: "batch_warm_tcp_small",
		Why:  "two OS processes over loopback with a warm snapshot cache: build bypassed, remote lookups over real sockets dominate",
		Data: small, Ranks: 2, LookupBatch: 32, TCP: true, Cached: true, MinReps: 3,
	},
	{
		Name: "serve_local_large",
		Why:  "resident np=1 service, 192 MiB table: every probe is local and misses cache, so the corrector walk and PackedStore probe dominate",
		Data: large, Ranks: 1, Served: true, Clients: 2, ChunkReads: 256, WarmupChunks: 100,
	},
	{
		Name: "serve_remote_small",
		Why:  "resident np=2 service, cache-resident table: lookup round trips, session shipping and door framing dominate; probe work predicts no change",
		Data: small, Ranks: 2, LookupBatch: 32, Workers: 2, Served: true, Clients: 2, ChunkReads: 256, WarmupChunks: 100,
	},
}

// tiny shrinks the genomes (and with them the read counts) so the self-test
// drives every code path of the benchmark in seconds. Nothing measured at
// this size means anything.
func tiny(w workload) workload {
	w.Data.GenomeLen /= 80
	w.WarmupChunks = 2
	w.ChunkReads = 64
	if w.MinReps > 2 {
		w.MinReps = 2
	}
	return w
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
