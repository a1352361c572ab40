package reptile

import (
	"reptile/internal/kmer"
	"reptile/internal/spectrum"
)

// Oracle answers spectrum count queries during correction. The sequential
// corrector is written against this interface so the distributed engine can
// substitute an oracle that resolves misses over the message-passing layer
// (paper Step IV): the algorithm is identical, only the lookup path changes.
type Oracle interface {
	// KmerCount returns the global count of a k-mer, with ok=false when the
	// k-mer is absent from the (pruned) spectrum.
	KmerCount(id kmer.ID) (count uint32, ok bool)
	// TileCount is the tile-spectrum analogue.
	TileCount(id kmer.ID) (count uint32, ok bool)
}

// Prefetcher is an optional Oracle extension for an oracle whose answers
// may be a message round trip away. PeekKmer/PeekTile answer exactly as
// KmerCount/TileCount would, but never block and have no side effects (no
// statistics, no cache writes). ready=false means the answer is not on this
// side of the wire yet: the oracle has staged the id, and whoever drives the
// corrector has it fetch everything staged before calling Advance again. An
// id that peeked ready stays ready until the walk that peeked it has
// performed the lookup (Corrector.Advance commits a tile's lookups through
// KmerCount/TileCount once the whole tile is ready).
type Prefetcher interface {
	PeekKmer(id kmer.ID) (count uint32, ok, ready bool)
	PeekTile(id kmer.ID) (count uint32, ok, ready bool)
}

// LocalOracle serves counts from in-memory stores; the replicated-spectrum
// and sequential modes use it directly.
type LocalOracle struct {
	Kmers spectrum.Lookuper
	Tiles spectrum.Lookuper

	// KmerLookups/TileLookups count queries, mirroring the per-rank lookup
	// statistics the paper reports.
	KmerLookups int64
	TileLookups int64
}

// KmerCount implements Oracle.
func (o *LocalOracle) KmerCount(id kmer.ID) (uint32, bool) {
	o.KmerLookups++
	return o.Kmers.Count(id)
}

// TileCount implements Oracle.
func (o *LocalOracle) TileCount(id kmer.ID) (uint32, bool) {
	o.TileLookups++
	return o.Tiles.Count(id)
}
