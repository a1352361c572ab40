package reptile

import (
	"reptile/internal/dna"
	"reptile/internal/kmer"
	"reptile/internal/reads"
)

// Result aggregates correction outcomes over a batch of reads.
type Result struct {
	ReadsProcessed int64
	ReadsChanged   int64
	BasesCorrected int64 // "errors corrected" in the paper's Fig 4
	TilesSolid     int64 // tiles already present in the spectrum
	TilesRepaired  int64
	TilesGivenUp   int64 // weak tiles with no acceptable candidate
}

// Add accumulates o into r.
func (r *Result) Add(o Result) {
	r.ReadsProcessed += o.ReadsProcessed
	r.ReadsChanged += o.ReadsChanged
	r.BasesCorrected += o.BasesCorrected
	r.TilesSolid += o.TilesSolid
	r.TilesRepaired += o.TilesRepaired
	r.TilesGivenUp += o.TilesGivenUp
}

// Corrector runs Reptile's tile-walk correction against an Oracle. It is
// not safe for concurrent use; each worker owns one Corrector (scratch
// buffers are reused across reads).
type Corrector struct {
	cfg    Config
	oracle Oracle
	pf     Prefetcher // oracle's non-blocking extension; nil when unsupported

	posBuf []int

	// Advance's plan-then-commit state, idle under CorrectRead: while
	// peeking, a tile's lookups are side-effect-free peeks recorded in log;
	// pending is set as soon as one of them is a round trip away, and the
	// log is replayed through the oracle only when the tile completes.
	peeking bool
	pending bool
	log     []lookupRec
}

// lookupRec is one lookup a tile evaluation decided on.
type lookupRec struct {
	id   kmer.ID
	tile bool
}

// NewCorrector validates cfg and builds a corrector.
func NewCorrector(cfg Config, oracle Oracle) (*Corrector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pf, _ := oracle.(Prefetcher)
	return &Corrector{cfg: cfg, oracle: oracle, pf: pf}, nil
}

// Config returns the corrector's configuration.
func (c *Corrector) Config() Config { return c.cfg }

// Walk is one read's resumable tile walk. The zero value is a walk not yet
// begun; Res is final once Advance has returned true. Repairs already
// written to the read are final (greedy propagation), so the position, the
// rolling window and the correction budget are all a suspended walk needs:
// it re-enters at the tile it stopped on and re-evaluates only that tile.
type Walk struct {
	Res Result

	p           int     // read position of the tile the walk stands on
	tile        kmer.ID // that tile: the rolling window, repairs included
	corrections int
	begun       bool
}

// CorrectRead corrects r in place and returns per-read statistics. The walk
// visits tiles left to right; a repair rewrites the read, so downstream
// tiles see corrected bases (greedy propagation, as in Reptile). Every
// lookup is a blocking Oracle call.
func (c *Corrector) CorrectRead(r *reads.Read) Result {
	var w Walk
	c.peeking = false
	c.walk(r, &w)
	return w.Res
}

// Advance is CorrectRead for an oracle whose answers may be a round trip
// away (a Prefetcher): it carries r's walk forward from where w left it and
// reports whether the walk finished. False means the walk is suspended on
// ids the oracle has staged; once the caller has had the oracle fetch them,
// Advance resumes at the same tile. Any schedule of suspensions yields the
// bases, the Result and the sequence of Oracle lookups CorrectRead would.
// Over an oracle that is not a Prefetcher, Advance is CorrectRead.
func (c *Corrector) Advance(r *reads.Read, w *Walk) bool {
	c.peeking = c.pf != nil
	return c.walk(r, w)
}

// walk runs the tile loop from w's position; false means suspended.
//
// The window rolls incrementally: each stride appends Step bases to the
// previous window instead of re-packing all tl bases per position. A repair
// rewrites bases inside the current window only, and the repaired tile id
// is exactly the winning candidate, so the roll resumes from it and
// downstream windows see the corrected bases.
func (c *Corrector) walk(r *reads.Read, w *Walk) bool {
	spec := c.cfg.Spec
	tl, step := spec.TileLen(), spec.Step()
	if !w.begun {
		w.begun = true
		w.Res.ReadsProcessed = 1
		if len(r.Base) < tl {
			return true
		}
		w.tile = kmer.Encode(r.Base[:tl])
	} else if w.p+tl > len(r.Base) {
		return true // a finished walk stays finished
	}
	for {
		if !c.stepTile(r, w) {
			return false
		}
		next := w.p + step
		if w.corrections >= c.cfg.MaxCorrectionsPerRead || next+tl > len(r.Base) {
			break
		}
		w.tile = c.roll(w.tile, r, next)
		w.p = next
	}
	w.p = len(r.Base)
	if w.Res.BasesCorrected > 0 {
		w.Res.ReadsChanged++
	}
	return true
}

// stepTile evaluates the tile the walk stands on — solid, repaired or given
// up — and accounts it in w. False means a lookup it needs is pending:
// nothing was accounted, nothing was written to the read, and everything
// the tile can currently know it needs has been staged.
//
// reptile-lint:hotpath
func (c *Corrector) stepTile(r *reads.Read, w *Walk) bool {
	c.pending = false
	c.log = c.log[:0]
	cnt, ok := c.tileCount(w.tile)
	if c.pending {
		c.stageAhead(r, w)
		return false
	}
	if ok && cnt >= c.cfg.TileThreshold {
		c.commit()
		w.Res.TilesSolid++
		return true
	}
	repaired, fixed, nchanged := c.repairTile(r, w.p, w.tile)
	if c.pending {
		return false
	}
	c.commit()
	if !fixed {
		w.Res.TilesGivenUp++
		return true
	}
	w.tile = repaired
	w.Res.TilesRepaired++
	w.Res.BasesCorrected += int64(nchanged)
	w.corrections += nchanged
	return true
}

// tileCount is the tile lookup of a tile evaluation: the oracle call itself
// when blocking, a logged peek when not.
func (c *Corrector) tileCount(id kmer.ID) (uint32, bool) {
	if !c.peeking {
		return c.oracle.TileCount(id)
	}
	cnt, ok, ready := c.pf.PeekTile(id)
	if !ready {
		c.pending = true
		return 0, false
	}
	c.log = append(c.log, lookupRec{id: id, tile: true})
	return cnt, ok
}

// kmerCount is tileCount's k-mer analogue.
func (c *Corrector) kmerCount(id kmer.ID) (uint32, bool) {
	if !c.peeking {
		return c.oracle.KmerCount(id)
	}
	cnt, ok, ready := c.pf.PeekKmer(id)
	if !ready {
		c.pending = true
		return 0, false
	}
	c.log = append(c.log, lookupRec{id: id})
	return cnt, ok
}

// commit performs the lookups a completed tile evaluation peeked, in order,
// so the oracle consumes each exactly once — its statistics and caches see
// what a blocking walk would have shown them. A suspended evaluation never
// gets here; its log is dropped and rebuilt on resume.
func (c *Corrector) commit() {
	for _, l := range c.log {
		if l.tile {
			c.oracle.TileCount(l.id)
		} else {
			c.oracle.KmerCount(l.id)
		}
	}
}

// stageAhead peeks every walk tile downstream of the one w is suspended on,
// so the oracle stages the whole rest of the walk alongside it: a read
// costs one round trip for its tiles, not one per tile. After a repair only
// the rewritten windows are new; the rest peek ready and stage nothing.
func (c *Corrector) stageAhead(r *reads.Read, w *Walk) {
	tl, step := c.cfg.Spec.TileLen(), c.cfg.Spec.Step()
	tile := w.tile
	for p := w.p + step; p+tl <= len(r.Base); p += step {
		tile = c.roll(tile, r, p)
		c.pf.PeekTile(tile)
	}
}

// roll advances the window one stride: from the tile at p-Step to the tile
// at p, by appending the Step bases that entered.
func (c *Corrector) roll(tile kmer.ID, r *reads.Read, p int) kmer.ID {
	tl, step := c.cfg.Spec.TileLen(), c.cfg.Spec.Step()
	for q := p + tl - step; q < p+tl; q++ {
		tile = tile.Append(r.Base[q], tl)
	}
	return tile
}

// candidate is one proposed tile repair.
type candidate struct {
	tile  kmer.ID
	count uint32
	pos   [2]int // read-relative changed positions; pos[1] = -1 for singles
	base  [2]dna.Base
	n     int
}

// ranking keeps the two best-supported candidates seen so far.
type ranking struct{ best, second candidate }

func (k *ranking) consider(cand candidate) {
	if cand.count > k.best.count {
		k.second = k.best
		k.best = cand
	} else if cand.count > k.second.count {
		k.second = cand
	}
}

// repairTile attempts to replace the weak tile starting at read position p.
// It returns the repaired tile id (the winning candidate, which matches the
// rewritten read bases exactly — the walk resumes its rolling window from
// it), whether a repair was applied, and how many bases changed. When a
// lookup was pending (c.pending) nothing was applied: each search radius
// runs to its end first, so every candidate it can name is staged in one
// pass, then gives up before its verdict is used.
func (c *Corrector) repairTile(r *reads.Read, p int, tile kmer.ID) (kmer.ID, bool, int) {
	tl := c.cfg.Spec.TileLen()
	positions, lowN := c.errPositions(r, p, tl)
	if len(positions) == 0 {
		return tile, false, 0
	}

	// Radius 1: single substitutions at the lowest-quality positions.
	var rank ranking
	for _, tp := range positions {
		orig := tile.BaseAt(tp, tl)
		for delta := 1; delta < dna.NumBases; delta++ {
			b := dna.Base((int(orig) + delta) % dna.NumBases)
			cand := tile.WithBase(tp, tl, b)
			cnt, ok := c.validCandidate(cand, tp, -1)
			if !ok {
				continue
			}
			rank.consider(candidate{tile: cand, count: cnt, pos: [2]int{p + tp, -1}, base: [2]dna.Base{b}, n: 1})
		}
	}
	if c.pending {
		return tile, false, 0
	}

	// Radius 2 only when no single substitution worked: pairs of the
	// lowest-quality positions (capped, since pairs are quadratic).
	if rank.best.n == 0 && c.cfg.MaxErrPerTile >= 2 {
		for i := 0; i < lowN; i++ {
			for j := i + 1; j < lowN; j++ {
				tp1, tp2 := positions[i], positions[j]
				o1, o2 := tile.BaseAt(tp1, tl), tile.BaseAt(tp2, tl)
				for d1 := 1; d1 < dna.NumBases; d1++ {
					b1 := dna.Base((int(o1) + d1) % dna.NumBases)
					t1 := tile.WithBase(tp1, tl, b1)
					for d2 := 1; d2 < dna.NumBases; d2++ {
						b2 := dna.Base((int(o2) + d2) % dna.NumBases)
						cand := t1.WithBase(tp2, tl, b2)
						cnt, ok := c.validCandidate(cand, tp1, tp2)
						if !ok {
							continue
						}
						rank.consider(candidate{
							tile: cand, count: cnt,
							pos:  [2]int{p + tp1, p + tp2},
							base: [2]dna.Base{b1, b2},
							n:    2,
						})
					}
				}
			}
		}
		if c.pending {
			return tile, false, 0
		}
	}

	// Require an unambiguous winner: correcting on a tie risks writing the
	// wrong haplotype (this is Reptile's exactness argument for tiles).
	best := &rank.best
	if best.n == 0 || best.count == rank.second.count {
		return tile, false, 0
	}
	for i := 0; i < best.n; i++ {
		r.Base[best.pos[i]] = best.base[i]
	}
	return best.tile, true, best.n
}

// validCandidate validates a candidate tile against the tile spectrum,
// then confirms the changed k-mers are solid. Probing the tile first
// mirrors Reptile's candidate validation and produces the traffic profile
// the paper reports: the bulk of correction-phase communication is tile
// lookups, most of them answered "does not exist" (Section IV). The k-mer
// confirmation only runs for the rare candidates whose tile is solid.
// tp2 < 0 means a single change.
func (c *Corrector) validCandidate(cand kmer.ID, tp1, tp2 int) (uint32, bool) {
	cnt, ok := c.tileCount(cand)
	if !ok || cnt < c.cfg.TileThreshold {
		return 0, false
	}
	spec := c.cfg.Spec
	k1, k2 := spec.Kmers(cand)
	needK1 := tp1 < spec.K || (tp2 >= 0 && tp2 < spec.K)
	needK2 := tp1 >= spec.Step() || (tp2 >= 0 && tp2 >= spec.Step())
	if needK1 {
		if kc, ok := c.kmerCount(k1); !ok || kc < c.cfg.KmerThreshold {
			if c.pending && needK2 {
				// k1's verdict may be a round trip away: stage k2 with it
				// instead of paying a second trip to learn k2 was needed.
				c.kmerCount(k2)
			}
			return 0, false
		}
	}
	if needK2 {
		if kc, ok := c.kmerCount(k2); !ok || kc < c.cfg.KmerThreshold {
			return 0, false
		}
	}
	return cnt, true
}

// errPositions returns every tile-relative position sorted by ascending
// quality — the radius-1 search tries them all, cheapest-suspicion first —
// plus lowN, the size of the low-quality prefix that the quadratic radius-2
// search is restricted to (positions below the quality threshold, floored
// at 2 and capped at MaxErrPositions). The sort is a stable insertion sort:
// equal qualities keep read order, and a tile is a few dozen positions.
func (c *Corrector) errPositions(r *reads.Read, p, tl int) ([]int, int) {
	qual := r.Qual[p : p+tl]
	pos := c.posBuf[:0]
	for i := 0; i < tl; i++ {
		j := len(pos)
		pos = append(pos, i)
		for ; j > 0 && qual[pos[j-1]] > qual[i]; j-- {
			pos[j] = pos[j-1]
		}
		pos[j] = i
	}
	c.posBuf = pos
	lowN := 0
	for lowN < len(pos) && qual[pos[lowN]] < c.cfg.QualThreshold {
		lowN++
	}
	if lowN < 2 {
		lowN = 2
	}
	if lowN > c.cfg.MaxErrPositions {
		lowN = c.cfg.MaxErrPositions
	}
	if lowN > len(pos) {
		lowN = len(pos)
	}
	return pos, lowN
}

// CorrectBatch corrects every read in place and returns totals.
func (c *Corrector) CorrectBatch(batch []reads.Read) Result {
	var total Result
	for i := range batch {
		total.Add(c.CorrectRead(&batch[i]))
	}
	return total
}

// CorrectDataset is the one-shot sequential pipeline: build spectra from
// the reads, then correct a deep copy and return it with statistics. The
// input batch is left untouched so callers can evaluate against it.
func CorrectDataset(batch []reads.Read, cfg Config) ([]reads.Read, Result, error) {
	kmers, tiles := BuildSpectra(batch, cfg)
	oracle := &LocalOracle{Kmers: kmers, Tiles: tiles}
	c, err := NewCorrector(cfg, oracle)
	if err != nil {
		return nil, Result{}, err
	}
	out := make([]reads.Read, len(batch))
	for i := range batch {
		out[i] = batch[i].Clone()
	}
	res := c.CorrectBatch(out)
	return out, res, nil
}
