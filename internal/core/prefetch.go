package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"reptile/internal/kmer"
	"reptile/internal/msgplane"
	"reptile/internal/transport"
)

// maxPrefetchEntries bounds the plane's answers map. Entries never go stale
// — the global spectra are static during Step IV — so the cap only bounds
// memory. It is enforced between blocks (see beginBlock), never under a
// block that may still be waiting on an answer, and it is sized so that the
// answers one waveBlock of reads can ask for fit beneath it.
const maxPrefetchEntries = 1 << 16

// preVal is one remote lookup's state in the plane: wanted marks an id that
// is staged or on the wire, otherwise it is the answer exactly as the owner
// sent it.
type preVal struct {
	cnt    uint32
	exists bool
	wanted bool
}

// prefetchPlane is the rank-wide staging area for remote lookups, shared by
// every correction worker. Workers sweep blocks of reads (corrWorker.wave):
// a read that needs a remote id stages it here and suspends; after the
// sweep the worker drains the plane, which sends everything staged — its
// own ids and whatever siblings staged meanwhile — as sorted, full,
// per-owner frames, all issued under the dispatcher's window before any is
// awaited. Round trips are paid per block, not per read.
//
// One answers map serves all workers, so an id any worker fetched answers
// every worker, and an id already staged or on the wire is never sent
// twice. Answers are applied by the consuming lookup (counters, cache
// writes) exactly as a live round trip would be — the plane itself touches
// no statistics except the flush leader's failover counter.
type prefetchPlane struct {
	np    int
	batch int // ids per frame

	mu   sync.Mutex
	cond *sync.Cond // signaled when a flush completes and when an eviction ends
	// answers[kind] holds every fetched answer plus a wanted marker for
	// every id in pending or taken.
	answers [2]map[kmer.ID]preVal
	// pending[kind][owner] are the staged ids no flush has taken yet; taken
	// is the double buffer the running flush owns.
	pending, taken [2][][]kmer.ID
	npending       int
	flushing       bool
	err            error // first transport error; poisons the plane
	// Blocks in progress, and whether new ones are held back so the answers
	// map can be emptied once the running ones finish.
	active   int
	evicting bool

	// Flush scratch, owned by the one running flush.
	calls []flushCall
	retry []flushCall
}

// flushCall is one frame of a flush round: ids of one kind for one owner.
type flushCall struct {
	call  *msgplane.Call
	owner int
	kind  byte
	ids   []kmer.ID
}

// newPrefetchPlane builds the rank's shared prefetch state.
func newPrefetchPlane(np, batch int) *prefetchPlane {
	p := &prefetchPlane{np: np, batch: batch}
	p.cond = sync.NewCond(&p.mu)
	for k := 0; k < 2; k++ {
		p.answers[k] = make(map[kmer.ID]preVal)
		p.pending[k] = make([][]kmer.ID, np)
		p.taken[k] = make([][]kmer.ID, np)
	}
	return p
}

// answer reads one fetched answer.
func (p *prefetchPlane) answer(kind byte, id kmer.ID) (preVal, bool) {
	p.mu.Lock()
	v, ok := p.answers[kind&1][id]
	p.mu.Unlock()
	return v, ok && !v.wanted
}

// stage returns id's answer if the plane has it; otherwise it makes sure id
// rides the next flush (unless it is already staged or on the wire) and
// reports not ready. It never blocks on the network. id must be genuinely
// remote.
//
// reptile-lint:hotpath
func (p *prefetchPlane) stage(kind byte, id kmer.ID) (preVal, bool) {
	k := kind & 1
	p.mu.Lock()
	v, ok := p.answers[k][id]
	if !ok {
		p.answers[k][id] = preVal{wanted: true}
		owner := kmer.Owner(id, p.np)
		p.pending[k][owner] = append(p.pending[k][owner], id)
		p.npending++
	}
	p.mu.Unlock()
	return v, ok && !v.wanted
}

// drain returns once every id staged before the call has its answer (or the
// plane is poisoned): it waits out a sibling's flush, then flushes whatever
// is still staged. The calling worker's oracle supplies the dispatcher, the
// recovery route, and the stats shard that absorbs any failovers the flush
// takes.
func (p *prefetchPlane) drain(o *distOracle) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.flushing {
		p.cond.Wait()
	}
	if p.err != nil || p.npending == 0 {
		// Nothing left of ours: the flush just waited out carried it.
		return p.err
	}
	p.flushing = true
	p.pending, p.taken = p.taken, p.pending
	p.npending = 0
	p.mu.Unlock()
	err := p.flush(o)
	p.mu.Lock()
	for k := range p.taken {
		for owner := range p.taken[k] {
			p.taken[k][owner] = p.taken[k][owner][:0]
		}
	}
	if err != nil && p.err == nil {
		p.err = err
	}
	p.flushing = false
	p.cond.Broadcast()
	return p.err
}

// flush sends the taken lists: each sorted (the delta+varint wire codec
// sees minimal deltas) and cut into full frames, every frame issued before
// any is awaited (the dispatcher's in-flight window is the pipeline depth),
// the answers collected into the shared map, and frames that hit a dying
// peer rerouted through the oracle's failover path. Runs outside the plane
// lock; only one flush runs at a time.
func (p *prefetchPlane) flush(o *distOracle) error {
	calls, retry := p.calls[:0], p.retry[:0]
	var firstErr error
issue:
	for k := range p.taken {
		for owner, list := range p.taken[k] {
			if len(list) == 0 {
				continue
			}
			slices.Sort(list)
			dest := owner
			if o.rec != nil {
				dest = o.rec.holderOf(owner)
			}
			for len(list) > 0 {
				n := min(len(list), p.batch)
				f := flushCall{owner: owner, kind: byte(k), ids: list[:n]}
				list = list[n:]
				call, err := o.disp.start(dest, f.kind, f.ids)
				switch {
				case err == nil:
					f.call = call
					calls = append(calls, f)
				case o.rec != nil && errors.Is(err, transport.ErrPeerDown):
					// The holder died under the frame; reissue synchronously
					// after the collect, through the failover route.
					retry = append(retry, f)
				default:
					firstErr = err
					break issue
				}
			}
		}
	}
	// Collect every issued frame even after an error — abandoning a call
	// would leak its window slot until the dispatcher is poisoned.
	for _, f := range calls {
		answers, err := o.disp.wait(f.call)
		switch {
		case err == nil:
			err = p.publish(f, answers)
		case o.rec != nil && errors.Is(err, transport.ErrPeerDown):
			retry = append(retry, f)
			continue
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, f := range retry {
		if firstErr != nil {
			break
		}
		answers, err := o.batchLookup(f.kind, f.ids, f.owner)
		if err == nil {
			err = p.publish(f, answers)
		}
		firstErr = err
	}
	clear(calls) // drop the resolved calls' answers
	p.calls, p.retry = calls[:0], retry[:0]
	return firstErr
}

// publish installs one frame's answers over its ids' wanted markers.
func (p *prefetchPlane) publish(f flushCall, answers []batchAnswer) error {
	if len(answers) != len(f.ids) {
		return fmt.Errorf("core: batch of %d ids answered with %d entries", len(f.ids), len(answers))
	}
	p.mu.Lock()
	m := p.answers[f.kind&1]
	for j, id := range f.ids {
		m[id] = preVal{cnt: answers[j].Count, exists: answers[j].Exists}
	}
	p.mu.Unlock()
	return nil
}

// beginBlock admits one block of reads to the plane. While the answers map
// is over its cap, new blocks wait here until the running ones finish and
// the map is emptied — so an answer a suspended read is waiting on is never
// evicted between its flush and its resume.
func (p *prefetchPlane) beginBlock() {
	p.mu.Lock()
	for p.evicting {
		p.cond.Wait()
	}
	p.active++
	p.mu.Unlock()
}

// endBlock retires one block; the last one out of an over-cap plane empties
// the map and lets the waiting blocks in.
func (p *prefetchPlane) endBlock() {
	p.mu.Lock()
	p.active--
	if len(p.answers[0])+len(p.answers[1]) > maxPrefetchEntries {
		p.evicting = true
	}
	if p.evicting && p.active == 0 {
		clear(p.answers[0])
		clear(p.answers[1])
		p.evicting = false
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}
