package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"reptile/internal/kmer"
	"reptile/internal/msgplane"
	"reptile/internal/reads"
	"reptile/internal/reptile"
	"reptile/internal/spectrum"
	"reptile/internal/stats"
	"reptile/internal/transport"
)

// recoveryGrace bounds how long a worker blocked on a peer-down verdict
// waits for the recovery layer to classify the loss. Detection normally
// resolves within the transport's peer timeout; the cap only guards against
// a verdict that never comes, turning a silent hang into a clean abort. An
// expired wait marks the rank unrecoverable so every later caller fails
// fast instead of re-arming the timer once per lookup.
const recoveryGrace = 30 * time.Second

// replicaSet is the immutable snapshot of which dead-or-live peers' frozen
// spectra this rank holds copies of, keyed by the owning rank. Lookups read
// it through an atomic pointer on the hot path; the rare writers (the ring
// exchange, a replica push import) swap in a copied map.
type replicaSet struct {
	kmer map[int]*spectrum.PackedStore
	tile map[int]*spectrum.PackedStore
}

// recoveryJob is one duty the peer-down handler assigns the new holder of a
// dead rank's shard: restore redundancy, then finish the dead rank's reads.
type recoveryJob struct {
	kind recoveryJobKind
	rank int // the dead rank
}

type recoveryJobKind int

const (
	jobReplicate recoveryJobKind = iota // push the lost shard to a new successor
	jobEstate                           // re-derive and correct the dead rank's reads
)

// pendingDeath records a peer loss absorbed before the correct-phase
// machinery (dispatcher, recovery caller, router) existed; arm replays it.
type pendingDeath struct {
	rank  int
	cause error
}

// recoveryState is one rank's view of the R=2 recovery protocol: which
// replica shards it holds, which rank currently serves each shard, which
// peers are dead, and the duties the peer-down handler has queued. It is
// created at the ring-replication point (end of the post-exchange phase)
// and armed with the correct-phase machinery by correctDriver.
//
// The failover ordering guarantee: onPeerDown marks the rank dead and
// repoints the shard holder *before* failing the dead rank's outstanding
// calls, so by the time any worker observes a peer-down error and asks for
// the new route, the route is already final.
type recoveryState struct {
	rank, np int

	// stores is the replica snapshot; hot-path reads are lock-free.
	stores atomic.Pointer[replicaSet]

	mu       sync.Mutex
	holder   []int        // holder[s] = rank currently serving shard s
	dead     map[int]bool // ranks lost and absorbed
	rejected map[int]bool // ranks lost and declared unrecoverable
	waiters  map[int][]chan bool

	// Correct-phase wiring, set by arm. started guards the replay: deaths
	// absorbed before arm are parked in pendingDeaths.
	started bool
	disp    *lookupDispatcher
	rc      *msgplane.Caller
	rt      *msgplane.Router
	steal   *stealSched
	pending []pendingDeath

	// jobs carries the holder's duties from the handler (any transport
	// goroutine) to the drain loop. Under the single-failure model at most
	// two jobs are ever queued; the buffer makes the handler non-blocking.
	jobs chan recoveryJob
}

// newRecoveryState builds the state with every shard served by its owner.
func newRecoveryState(rank, np int) *recoveryState {
	rs := &recoveryState{
		rank:     rank,
		np:       np,
		holder:   make([]int, np),
		dead:     make(map[int]bool),
		rejected: make(map[int]bool),
		waiters:  make(map[int][]chan bool),
		jobs:     make(chan recoveryJob, 2*np),
	}
	for s := range rs.holder {
		rs.holder[s] = s
	}
	rs.stores.Store(&replicaSet{
		kmer: map[int]*spectrum.PackedStore{},
		tile: map[int]*spectrum.PackedStore{},
	})
	return rs
}

// addReplica records a held copy of owner's frozen spectrum, copy-on-write
// so concurrent lookups never see a map mutation.
func (rs *recoveryState) addReplica(owner int, kind byte, s *spectrum.PackedStore) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	old := rs.stores.Load()
	next := &replicaSet{
		kmer: make(map[int]*spectrum.PackedStore, len(old.kmer)+1),
		tile: make(map[int]*spectrum.PackedStore, len(old.tile)+1),
	}
	for k, v := range old.kmer {
		next.kmer[k] = v
	}
	for k, v := range old.tile {
		next.tile[k] = v
	}
	if kind == kindKmer {
		next.kmer[owner] = s
	} else {
		next.tile[owner] = s
	}
	rs.stores.Store(next)
}

// replicaStore returns the held copy of owner's spectrum of kind, or nil.
//
// reptile-lint:hotpath
func (rs *recoveryState) replicaStore(kind byte, owner int) *spectrum.PackedStore {
	set := rs.stores.Load()
	if kind == kindKmer {
		return set.kmer[owner]
	}
	return set.tile[owner]
}

// replicaMemBytes sums the held replicas' slab footprints — the honest
// memory cost of R=2.
func (rs *recoveryState) replicaMemBytes() int64 {
	var total int64
	set := rs.stores.Load()
	for _, s := range set.kmer {
		total += s.MemBytes()
	}
	for _, s := range set.tile {
		total += s.MemBytes()
	}
	return total
}

// holderOf returns the rank currently serving shard owner.
func (rs *recoveryState) holderOf(owner int) int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.holder[owner]
}

// isDead reports whether rank's loss was absorbed.
func (rs *recoveryState) isDead(rank int) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.dead[rank]
}

// deadRanks returns the absorbed losses in rank order.
func (rs *recoveryState) deadRanks() []int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var out []int
	for r := range rs.dead {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// nextLiveLocked returns the first live rank after r on the ring.
//
// reptile-lint:holds mu
func (rs *recoveryState) nextLiveLocked(r int) int {
	for i := 1; i < rs.np; i++ {
		c := (r + i) % rs.np
		if !rs.dead[c] {
			return c
		}
	}
	return r
}

// onPeerDown is the transport's peer-down handler while recovery is armed.
// It returns true to absorb a survivable loss — single failure, not the
// coordinator — after repointing the dead rank's shard to its successor and
// failing its outstanding calls; false to decline, which sends the event
// down the fatal mailbox-poison path with the existing attribution.
func (rs *recoveryState) onPeerDown(rank int, cause error) bool {
	rs.mu.Lock()
	if rs.dead[rank] {
		rs.mu.Unlock()
		return true // duplicate notification of an absorbed loss
	}
	if rs.rejected[rank] {
		rs.mu.Unlock()
		return false
	}
	// Rank 0 owns the done/stop protocol and cannot be replaced; a second
	// failure exceeds what one surviving replica can cover.
	if rank == 0 || len(rs.dead) > 0 {
		rs.rejected[rank] = true
		rs.notifyLocked(rank, false)
		rs.mu.Unlock()
		return false
	}
	rs.dead[rank] = true
	for s := 0; s < rs.np; s++ {
		if rs.holder[s] == rank {
			rs.holder[s] = rs.nextLiveLocked(s)
		}
	}
	rs.notifyLocked(rank, true)
	started := rs.started
	disp, rc, rt, steal := rs.disp, rs.rc, rs.rt, rs.steal
	if !started {
		rs.pending = append(rs.pending, pendingDeath{rank: rank, cause: cause})
	}
	// The new holder of the dead rank's shard owes the group two duties, in
	// order: restore R=2, then finish the dead rank's reads (the estate
	// ends with the proxy done, so re-replication must complete before the
	// stop broadcast can fire).
	if rs.holder[rank] == rs.rank {
		rs.jobs <- recoveryJob{kind: jobReplicate, rank: rank}
		rs.jobs <- recoveryJob{kind: jobEstate, rank: rank}
	}
	rs.mu.Unlock()

	if started {
		if disp != nil {
			disp.failPeer(rank, cause)
		}
		if rc != nil {
			rc.FailPeer(rank, cause)
		}
		if rt != nil {
			rt.MarkDead(rank)
		}
		if steal != nil {
			steal.reclaim(rank)
		}
	}
	return true
}

// notifyLocked releases every awaitFailover waiter for rank with the
// verdict: true = absorbed (reroute and retry), false = unrecoverable.
//
// reptile-lint:holds mu
func (rs *recoveryState) notifyLocked(rank int, ok bool) {
	for _, ch := range rs.waiters[rank] {
		ch <- ok
	}
	delete(rs.waiters, rank)
}

// awaitFailover blocks until the recovery layer has classified rank's loss:
// true means the loss was absorbed (the shard holder map is already final,
// so the caller can re-route and retry), false means it is fatal and the
// caller must surface its original error.
func (rs *recoveryState) awaitFailover(rank int) bool {
	rs.mu.Lock()
	if rs.dead[rank] {
		rs.mu.Unlock()
		return true
	}
	if rs.rejected[rank] {
		rs.mu.Unlock()
		return false
	}
	ch := make(chan bool, 1)
	rs.waiters[rank] = append(rs.waiters[rank], ch)
	rs.mu.Unlock()
	select {
	case ok := <-ch:
		return ok
	case <-time.After(recoveryGrace):
		// No verdict within the grace period. Make the rejection sticky —
		// and release any other waiters — so the run aborts promptly rather
		// than burning a fresh grace period on every subsequent lookup.
		rs.mu.Lock()
		defer rs.mu.Unlock()
		if rs.dead[rank] {
			return true // verdict raced the timer
		}
		if !rs.rejected[rank] {
			rs.rejected[rank] = true
			rs.notifyLocked(rank, false)
		}
		return false
	}
}

// arm wires the correct-phase machinery into the handler and replays any
// death absorbed before the machinery existed (a crash can land while this
// rank is still importing ring replicas).
func (rs *recoveryState) arm(disp *lookupDispatcher, rc *msgplane.Caller, rt *msgplane.Router, steal *stealSched) {
	rs.mu.Lock()
	rs.started = true
	rs.disp, rs.rc, rs.rt, rs.steal = disp, rc, rt, steal
	replay := rs.pending
	rs.pending = nil
	rs.mu.Unlock()
	for _, d := range replay {
		if disp != nil {
			disp.failPeer(d.rank, d.cause)
		}
		if rc != nil {
			rc.FailPeer(d.rank, d.cause)
		}
		if rt != nil {
			rt.MarkDead(d.rank)
		}
	}
}

// ringReplicate is the R=2 placement: every rank ships its frozen owned
// spectra (exact slab images, so the replica probes identically) to its
// ring successor through the same all-to-all collective schedule every
// other exchange uses, and imports its predecessor's. It runs at the end of
// the post-exchange phase — the freeze point.
//
// The peer-down handler is installed *before* the collective, not after.
// A rank can only reach its correct phase — the earliest point a survivable
// crash can land — once its own replica exchange completed, which requires
// every peer to have sent its slabs, which requires every peer to have
// passed this install. So by the time any absorbable death can occur, every
// survivor's handler is armed; installing after the collective left a
// window (wide at high rank counts, where peers linger in the exchange
// while the first rank finishes) in which a correct-phase crash poisoned
// the laggards' mailboxes instead of reaching the recovery layer. Deaths
// absorbed here, before arm wires in the dispatcher, are parked and
// replayed (see pendingDeath).
//
// reptile-lint:build
func (ctx *rankCtx) ringReplicate() error {
	succ := (ctx.rank + 1) % ctx.np
	pred := (ctx.rank - 1 + ctx.np) % ctx.np
	payload := ctx.ownKmer.ExportSlabs(nil)
	payload = ctx.ownTile.ExportSlabs(payload)
	bufs := make([][]byte, ctx.np)
	bufs[succ] = payload
	ctx.st.ExchangeBytes += int64(len(payload))
	ctx.rec = newRecoveryState(ctx.rank, ctx.np)
	ctx.e.SetPeerDownHandler(ctx.rec.onPeerDown)
	got, err := ctx.comm.Alltoallv(bufs)
	if err != nil {
		return err
	}
	pk, rest, err := spectrum.ImportPackedSlabs(got[pred])
	if err != nil {
		return fmt.Errorf("core: importing rank %d's k-mer replica: %w", pred, err)
	}
	pt, rest, err := spectrum.ImportPackedSlabs(rest)
	if err != nil {
		return fmt.Errorf("core: importing rank %d's tile replica: %w", pred, err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("core: %d trailing bytes after rank %d's replica image", len(rest), pred)
	}
	ctx.rec.addReplica(pred, kindKmer, pk)
	ctx.rec.addReplica(pred, kindTile, pt)
	return nil
}

// disarmRecovery removes the peer-down handler and records the recovered
// losses in the rank's stats, so the launcher can tell a recovered run from
// a clean one.
func (ctx *rankCtx) disarmRecovery() {
	ctx.e.SetPeerDownHandler(nil)
	ctx.st.RecoveredRanks = ctx.rec.deadRanks()
}

// drainRecovery keeps this rank responsive between its own done
// announcement and the stop broadcast: the router serves lookups on its
// goroutine while this loop executes any recovery duties the peer-down
// handler queued — the replica push and the dead rank's estate.
func (ctx *rankCtx) drainRecovery(res *reptile.Result, disp *lookupDispatcher, rt *msgplane.Router, routerExit <-chan struct{}) error {
	for {
		select {
		case <-routerExit:
			return nil
		case job := <-ctx.rec.jobs:
			var err error
			switch job.kind {
			case jobReplicate:
				err = ctx.pushReplicas(job.rank)
			case jobEstate:
				err = ctx.correctEstate(job.rank, res, disp, rt)
			}
			if err != nil {
				return err
			}
		}
	}
}

// pushReplicas restores R=2 after a loss: this rank (the dead rank's shard
// holder) streams the lost shard's slab images to the next live rank on the
// ring, which imports them as its own replicas. With no third rank to push
// to the group runs at R=1 for the remainder — the single-failure model's
// floor.
func (ctx *rankCtx) pushReplicas(dead int) error {
	ctx.rec.mu.Lock()
	target := ctx.rec.nextLiveLocked(ctx.rank)
	ctx.rec.mu.Unlock()
	if target == ctx.rank || target == dead {
		return nil // no third live rank: the group runs at R=1 from here
	}
	for _, ks := range []struct {
		kind byte
		s    *spectrum.PackedStore
	}{
		{kindKmer, ctx.rec.replicaStore(kindKmer, dead)},
		{kindTile, ctx.rec.replicaStore(kindTile, dead)},
	} {
		if ks.s == nil {
			return fmt.Errorf("core: rank %d holds no %d-kind replica of dead rank %d", ctx.rank, ks.kind, dead)
		}
		slab := ks.s.ExportSlabs(nil)
		kind := ks.kind
		call, err := ctx.recCaller.Start(target, 1, func(reqID uint32) (msgplane.Tag, []byte) {
			return encodeReplPushFrame(reqID, dead, kind, slab)
		})
		if err != nil {
			return err
		}
		if _, err := call.Wait(); err != nil {
			return err
		}
		ctx.st.ShardsRereplicated++
	}
	return nil
}

// correctEstate finishes a dead rank's work: re-derive its read assignment
// from the source (the assignment is a pure function of the input and the
// balancing mode, so any survivor computes the identical set), correct the
// reads — the dead shard's lookups resolve locally against the held replica,
// everything else through the normal remote protocol — and announce the
// dead rank done by proxy so the group's termination protocol converges.
func (ctx *rankCtx) correctEstate(dead int, res *reptile.Result, disp *lookupDispatcher, rt *msgplane.Router) error {
	estate, err := ctx.deriveAssignment(dead)
	if err != nil {
		return err
	}
	var shard stats.Rank
	w, err := ctx.newWorker(&shard, disp, nil)
	if err != nil {
		return err
	}
	r, err := w.correct(estate)
	res.Add(r)
	ctx.st.AddLookups(&shard)
	if err != nil {
		return err
	}
	ctx.st.ReadsRecovered += int64(len(estate))
	ctx.myReads = append(ctx.myReads, estate...)
	return rt.AnnounceDoneFor(dead)
}

// deriveAssignment recomputes the exact read set the pipeline assigned to
// rank: under load balancing, every input shard filtered by owner hash and
// sorted by sequence number (mirroring readPhase + balancePhase); without
// it, the rank's own input shard in file order.
func (ctx *rankCtx) deriveAssignment(rank int) ([]reads.Read, error) {
	if ctx.src == nil {
		return nil, fmt.Errorf("core: no source to re-derive rank %d's assignment", rank)
	}
	var estate []reads.Read
	collect := func(shard int, keepAll bool) error {
		br, err := ctx.src.Open(shard, ctx.np, ctx.opts.Config.ChunkReads)
		if err != nil {
			return err
		}
		defer br.Close()
		for {
			batch, err := br.NextBatch()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			for i := range batch {
				if keepAll || batch[i].OwnerRank(ctx.np) == rank {
					estate = append(estate, batch[i].Clone())
				}
			}
		}
	}
	if !ctx.opts.LoadBalance {
		if err := collect(rank, true); err != nil {
			return nil, err
		}
		return estate, nil
	}
	for s := 0; s < ctx.np; s++ {
		if err := collect(s, false); err != nil {
			return nil, err
		}
	}
	sort.Slice(estate, func(i, j int) bool { return estate[i].Seq < estate[j].Seq })
	return estate, nil
}

// tolerateDeadPeer filters a responder-side send error: answering a rank
// whose loss the recovery layer absorbed (or is about to absorb) is not a
// failure — the requester is gone and its work is being re-covered. Every
// other error passes through.
func (ctx *rankCtx) tolerateDeadPeer(err error) error {
	if err == nil || ctx.rec == nil {
		return err
	}
	var pd *transport.PeerDownError
	if !errors.As(err, &pd) {
		return err
	}
	if ctx.rec.awaitFailover(pd.Rank) {
		return nil
	}
	return err
}

// lookupStore resolves which frozen store answers a served lookup: the own
// shard normally, a held replica when the recovery layer rerouted a dead
// rank's traffic here. A request for a shard this rank neither owns nor
// replicates is a routing bug and fails loudly rather than answering a
// definitive (and wrong) miss.
func (ctx *rankCtx) lookupStore(kind byte, id kmer.ID) (spectrum.Lookuper, error) {
	owner := kmer.Owner(id, ctx.np)
	if owner != ctx.rank && ctx.rec != nil {
		if s := ctx.rec.replicaStore(kind, owner); s != nil {
			return s, nil
		}
		return nil, fmt.Errorf("core: lookup for rank %d's shard routed to rank %d, which holds no replica", owner, ctx.rank)
	}
	return ctx.ownedStore(kind)
}
