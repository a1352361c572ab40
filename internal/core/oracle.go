package core

import (
	"errors"
	"fmt"
	"sync"

	"reptile/internal/kmer"
	"reptile/internal/msgplane"
	"reptile/internal/spectrum"
	"reptile/internal/stats"
	"reptile/internal/transport"
)

// distOracle resolves spectrum lookups for the corrector during Step IV,
// implementing the paper's lookup chain: owned table → replicated/group
// copy → retained reads table (with resolved global counts) → message to
// the owning rank's communication thread.
//
// Each worker goroutine owns one distOracle. The owned/replicated/group
// stores are read-only during correction and safe to share; the reads
// tables are shared too but mutated by the cache heuristic, so multi-worker
// runs serialize that access through cacheMu.
type distOracle struct {
	e    transport.Conn
	st   *stats.Rank
	rank int
	np   int

	h Heuristics

	// Owned (pruned, global-count) spectra, frozen into packed form.
	// frozen: shared read-only with the responder goroutine
	ownKmer, ownTile *spectrum.PackedStore
	// Full replicas (nil unless the allgather heuristics are on); the
	// layout depends on Heuristics.ReplicatedLayout.
	replKmer, replTile spectrum.Lookuper
	// Partial-replication group copies (nil unless enabled).
	// frozen: packed by groupReplicate
	groupKmer, groupTile *spectrum.PackedStore
	groupSize            int
	// Retained reads tables with *global* counts; an entry with count 0
	// records a resolved "does not exist". Frozen packed stores normally;
	// under CacheRemote they are the mutable cache tables below.
	readsKmer, readsTile spectrum.Lookuper
	// Write side of the CacheRemote heuristic (nil otherwise): the same
	// stores as readsKmer/readsTile, in their mutable form. Multi-worker
	// access is serialized by cacheMu.
	cacheKmer, cacheTile *spectrum.HashStore

	// Batched-lookup state, nil when Heuristics.LookupBatch == 0: the
	// dispatcher and the prefetch plane (the rank-wide answers map and
	// per-owner staging lists), both shared by every worker of the rank.
	disp  *lookupDispatcher
	plane *prefetchPlane
	// cacheMu serializes reads-table access when several workers share the
	// tables under the CacheRemote heuristic; nil in single-worker runs.
	cacheMu *sync.RWMutex

	// rec is the R=2 recovery state (nil unless Options.Replicas >= 2):
	// held replica shards answer their owners' lookups locally, and remote
	// frames route to each shard's current holder with peer-down failover.
	rec *recoveryState

	err error // first transport error; checked by the worker after the run
}

// KmerCount implements reptile.Oracle.
func (o *distOracle) KmerCount(id kmer.ID) (uint32, bool) {
	return o.lookup(kindKmer, id)
}

// TileCount implements reptile.Oracle.
func (o *distOracle) TileCount(id kmer.ID) (uint32, bool) {
	return o.lookup(kindTile, id)
}

// PeekKmer implements reptile.Prefetcher.
func (o *distOracle) PeekKmer(id kmer.ID) (uint32, bool, bool) { return o.peek(kindKmer, id) }

// PeekTile implements reptile.Prefetcher.
func (o *distOracle) PeekTile(id kmer.ID) (uint32, bool, bool) { return o.peek(kindTile, id) }

// Where the lookup chain found an answer.
const (
	srcRemote = iota // nowhere on this rank: only the owner can say
	srcLocal         // a store whose answer, hit or miss, is definitive
	srcReads         // the retained reads table (the CacheRemote cache)
)

// local walks the links of the lookup chain that need no message — owned
// table, replica, group copy, reads table — without touching a counter.
//
// reptile-lint:hotpath
func (o *distOracle) local(kind byte, id kmer.ID) (cnt uint32, exists bool, src int) {
	repl := o.replKmer
	own, group, reads := o.ownKmer, o.groupKmer, o.readsKmer
	if kind == kindTile {
		repl, own, group, reads = o.replTile, o.ownTile, o.groupTile, o.readsTile
	}
	if repl != nil {
		cnt, exists = repl.Count(id)
		return cnt, exists, srcLocal
	}
	owner := kmer.Owner(id, o.np)
	if owner == o.rank {
		cnt, exists = own.Count(id) // a miss here is definitive
		return cnt, exists, srcLocal
	}
	if o.rec != nil {
		if s := o.rec.replicaStore(kind, owner); s != nil {
			// The held R=2 copy is an exact slab image of the owner's frozen
			// store, so a miss is as definitive as the owner's own answer.
			cnt, exists = s.Count(id)
			return cnt, exists, srcLocal
		}
	}
	if group != nil && owner/o.groupSize == o.rank/o.groupSize {
		// The group copy is the complete owned spectrum of every group
		// member, so a miss is definitive too.
		cnt, exists = group.Count(id)
		return cnt, exists, srcLocal
	}
	if reads != nil {
		if cnt, ok := o.cachedCount(reads, id); ok {
			return cnt, cnt != 0, srcReads // count 0 records a resolved "does not exist"
		}
	}
	return 0, false, srcRemote
}

// lookup is one consumed lookup: it answers, and it applies the lookup's
// statistics and cache effects. With batching on, a remote id's answer must
// already sit in the prefetch plane — the corrector peeks (and thereby
// stages) every id before it commits to looking it up — and those effects
// are applied here, at consume time, exactly as a live round trip's would
// be; this is what keeps a batched run's counters equal to the unbatched
// run's.
func (o *distOracle) lookup(kind byte, id kmer.ID) (uint32, bool) {
	cnt, exists, src := o.local(kind, id)
	if src != srcRemote {
		o.countLocal(kind)
		if src == srcReads && exists && o.h.CacheRemote {
			o.st.CacheHits++
		}
		return cnt, exists
	}
	if o.plane != nil {
		v, ok := o.plane.answer(kind, id)
		if !ok {
			if o.err == nil {
				o.err = fmt.Errorf("core: rank %d consumed a remote lookup (kind %d, id %d) that was never fetched", o.rank, kind, id)
			}
			return 0, false
		}
		o.finishRemote(kind, id, v.cnt, v.exists)
		return v.cnt, v.exists
	}
	// The legacy protocol: one round trip to the owner's communication
	// thread per lookup.
	cnt, exists, err := o.remote(kind, id, kmer.Owner(id, o.np))
	if err != nil {
		if o.err == nil {
			o.err = err
		}
		return 0, false
	}
	o.finishRemote(kind, id, cnt, exists)
	return cnt, exists
}

// peek answers a lookup without consuming it: no counters, no cache write,
// no blocking. An id only its owner can answer is staged in the plane for
// the worker's next drain and reported not ready.
func (o *distOracle) peek(kind byte, id kmer.ID) (cnt uint32, exists, ready bool) {
	cnt, exists, src := o.local(kind, id)
	if src != srcRemote {
		return cnt, exists, true
	}
	v, ok := o.plane.stage(kind, id)
	return v.cnt, v.exists, ok
}

// finishRemote applies the statistics and cache effects of one resolved
// remote lookup — identical whether the answer came over a legacy round
// trip or out of the prefetch plane. The cache write goes through the
// mutable table handle; the frozen read-side view sees it because they are
// the same store under CacheRemote.
func (o *distOracle) finishRemote(kind byte, id kmer.ID, cnt uint32, exists bool) {
	cache := o.cacheKmer
	if kind == kindKmer {
		o.st.KmerLookupsRemote++
	} else {
		o.st.TileLookupsRemote++
		cache = o.cacheTile
	}
	if !exists {
		o.st.RemoteMisses++
	}
	if o.h.CacheRemote && cache != nil {
		v := uint32(0)
		if exists {
			v = cnt
		}
		if o.cacheMu != nil {
			o.cacheMu.Lock()
			cache.Set(id, v)
			o.cacheMu.Unlock()
		} else {
			cache.Set(id, v)
		}
	}
}

// cachedCount reads a reads-table entry, taking the shared-cache lock when
// several workers mutate the table concurrently.
func (o *distOracle) cachedCount(reads spectrum.Lookuper, id kmer.ID) (uint32, bool) {
	if o.cacheMu != nil {
		o.cacheMu.RLock()
		defer o.cacheMu.RUnlock()
	}
	return reads.Count(id)
}

func (o *distOracle) countLocal(kind byte) {
	if kind == kindKmer {
		o.st.KmerLookupsLocal++
	} else {
		o.st.TileLookupsLocal++
	}
}

// batchLookup issues one batch frame to the rank currently serving owner's
// shard. Without recovery that is the owner itself and any error is final.
// With recovery armed, a peer-down error triggers the failover dance: block
// until the recovery layer classifies the loss (by which time the holder
// map is final), re-read the route, and reissue to the survivor — whose
// replica is an exact slab image, so the answers are byte-identical.
func (o *distOracle) batchLookup(kind byte, ids []kmer.ID, owner int) ([]batchAnswer, error) {
	dest := owner
	if o.rec != nil {
		if dest = o.rec.holderOf(owner); dest != owner {
			o.st.FailoversTaken++
		}
	}
	for attempt := 0; ; attempt++ {
		answers, err := o.disp.roundTrip(dest, kind, ids)
		if err == nil || o.rec == nil || attempt >= o.np {
			return answers, err
		}
		var pd *transport.PeerDownError
		if !errors.As(err, &pd) {
			return nil, err
		}
		if !o.rec.awaitFailover(pd.Rank) {
			return nil, err // unrecoverable loss: surface the original error
		}
		next := o.rec.holderOf(owner)
		if next == dest {
			return nil, err // no surviving route for this shard
		}
		dest = next
		o.st.FailoversTaken++
	}
}

// remote performs one synchronous request/response with the owning rank —
// the legacy unbatched protocol. The single worker issues at most one
// request at a time, so the tagResp stream cannot interleave; a response
// from any other rank is therefore a protocol violation.
func (o *distOracle) remote(kind byte, id kmer.ID, owner int) (uint32, bool, error) {
	tag, payload := encodeReq(o.h.Universal, kind, id)
	if err := msgplane.Send(o.e, owner, tag, payload); err != nil {
		return 0, false, err
	}
	m, err := msgplane.Recv(o.e, tagResp)
	if err != nil {
		return 0, false, err
	}
	if m.From != owner {
		return 0, false, &ProtocolError{Tag: tagResp, Kind: msgplane.ViolationStraySender, From: m.From, Want: owner}
	}
	cnt, exists, err := decodeResp(m.Data)
	if err != nil {
		return 0, false, err
	}
	return cnt, exists, nil
}
