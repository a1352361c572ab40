package main

import (
	"fmt"
	"os"
	"time"

	"reptile/internal/fastaio"
	"reptile/internal/genome"
	"reptile/internal/reads"
	"reptile/internal/reptile"
)

// data is one generated dataset on disk, with the simulator's ground truth
// kept in memory for scoring.
type data struct {
	spec        dataset
	ds          *genome.Dataset
	fasta, qual string
	inputBytes  int64
	generateS   float64 // genome + read simulation
	writeS      float64 // fastaio.WriteDataset alone
	syncS       float64 // flushing both files to disk
}

// makeData simulates spec's reads from seed and writes the fasta/qual pair
// the program consumes under dir.
func makeData(spec dataset, seed int64, dir string) (*data, error) {
	d := &data{spec: spec}
	t := time.Now()
	d.ds = genome.Preset{
		Name: spec.Name, GenomeLen: spec.GenomeLen, ReadLen: spec.ReadLen,
		Coverage: spec.Coverage, Seed: seed,
	}.Build()
	d.generateS = time.Since(t).Seconds()

	t = time.Now()
	var err error
	d.fasta, d.qual, err = fastaio.WriteDataset(dir, spec.Name, d.ds.Reads)
	if err != nil {
		return nil, fmt.Errorf("writing dataset %s: %w", spec.Name, err)
	}
	d.writeS = time.Since(t).Seconds()

	t = time.Now()
	for _, p := range []string{d.fasta, d.qual} {
		n, err := syncFile(p)
		if err != nil {
			return nil, err
		}
		d.inputBytes += n
	}
	d.syncS = time.Since(t).Seconds()
	return d, nil
}

// syncFile flushes path to disk and returns its size. Without it the kernel
// writes the few hundred MB of fresh input back whenever it pleases, which is
// sometimes in the middle of the timed region and sometimes after it.
func syncFile(path string) (int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// config is the correction configuration every workload on spec runs with:
// the program's defaults at the dataset's k.
func (s dataset) config() reptile.Config {
	cfg := reptile.Default()
	cfg.Spec.K = s.K
	return cfg
}

// readHash digests one read's bases and qualities (FNV-1a).
func readHash(r *reads.Read) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range r.Base {
		h = (h ^ uint64(b)) * 1099511628211
	}
	for _, q := range r.Qual {
		h = (h ^ uint64(q)) * 1099511628211
	}
	return h
}

// sequentialReference corrects the whole dataset with the sequential
// internal/reptile corrector — the implementation the distributed engine
// must equal byte for byte, in every mode — and returns the per-read
// digests. On large it takes 13 s, less than either mode of the program.
func sequentialReference(d *data) ([]uint64, error) {
	cfg := d.spec.config()
	kmers, tiles := reptile.BuildSpectra(d.ds.Reads, cfg)
	c, err := reptile.NewCorrector(cfg, &reptile.LocalOracle{Kmers: kmers, Tiles: tiles})
	if err != nil {
		return nil, err
	}
	want := make([]uint64, len(d.ds.Reads))
	for i := range d.ds.Reads {
		r := d.ds.Reads[i].Clone()
		c.CorrectRead(&r)
		want[i] = readHash(&r)
	}
	return want, nil
}

// checker verifies program output read by read. want[i] is the digest read
// i+1 must have.
type checker struct {
	ds   *genome.Dataset
	want []uint64
}

// ok reports whether r is a well-formed, expected correction of its read.
func (c *checker) ok(r *reads.Read) bool {
	i := r.Seq - 1
	if i < 0 || i >= int64(len(c.want)) || len(r.Base) != len(c.ds.Reads[i].Base) || len(r.Qual) != len(r.Base) {
		return false
	}
	return c.want[i] == readHash(r)
}

// failedReads checks one complete output of the dataset and returns how many
// reads are wrong, duplicated or missing.
func (c *checker) failedReads(out []reads.Read) int64 {
	seen := make([]bool, len(c.want))
	var failed int64
	for i := range out {
		r := &out[i]
		known := r.Seq >= 1 && r.Seq <= int64(len(seen))
		if !c.ok(r) || (known && seen[r.Seq-1]) {
			failed++
		}
		if known {
			seen[r.Seq-1] = true
		}
	}
	for _, s := range seen {
		if !s {
			failed++
		}
	}
	return failed
}
