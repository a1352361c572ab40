package core

import (
	"errors"
	"fmt"
	"sync"

	"reptile/internal/msgplane"
	"reptile/internal/reads"
	"reptile/internal/reptile"
	"reptile/internal/spectrum"
	"reptile/internal/stats"
	"reptile/internal/transport"
)

// residentPlane is one rank's armed correct-phase machinery: the live
// router goroutine, the batch dispatcher, and the pre-phase counter
// snapshots. The batch driver arms it, works, and quiesces within one
// correctDriver call; the SpectrumService keeps it armed across many
// sessions and quiesces at Drain.
type residentPlane struct {
	disp       *lookupDispatcher
	rt         *msgplane.Router
	respErr    chan error
	routerExit chan struct{}
	wg         sync.WaitGroup
	msgs0      []int64
	bytes0     []int64
}

// armCorrect builds Step IV's resident machinery: the dispatcher and
// prefetch plane, the steal scheduler and recovery side channel when
// configured, the session caller and executor, and the router goroutine
// (the paper's communication thread) serving them all. From here the rank
// answers peers' lookups and session requests until quiesceCorrect (or a
// failure) tears it down.
func (ctx *rankCtx) armCorrect() *residentPlane {
	p := &residentPlane{
		respErr:    make(chan error, 1),
		routerExit: make(chan struct{}),
	}
	p.msgs0, p.bytes0 = ctx.e.Counters().PerDestSnapshot()
	p.disp = ctx.newDispatcher()
	if p.disp != nil {
		ctx.plane = newPrefetchPlane(ctx.np, ctx.opts.Heuristics.LookupBatch)
	}
	if ctx.opts.WorkSteal {
		ctx.steal = newStealSched(ctx.myReads, ctx.opts.Config.ChunkReads)
	}
	if ctx.rec != nil || ctx.opts.WorkSteal {
		// The recovery/steal side channel: replica pushes and steal requests
		// ride their own caller so they never contend with the lookup
		// dispatcher's window accounting.
		ctx.recCaller = msgplane.NewCaller(ctx.e, ctx.np, 0)
	}
	// The session layer: every correction — one-shot batch, streaming
	// chunks, or served client jobs — enters through a session at some
	// rank's executor. The caller's window is sized so the per-session
	// windows are the binding flow control, never the shared caller.
	ctx.sessCaller = msgplane.NewCaller(ctx.e, ctx.np, ctx.opts.sessionCallerWindow())
	ctx.sessions = newSessionExec(ctx, p.disp)
	rt := ctx.newResponder(p.disp)
	p.rt = rt
	if ctx.rec != nil {
		// From here the peer-down handler can fail the dead rank's calls
		// directly; deaths absorbed before this point are replayed now.
		ctx.rec.arm(p.disp, ctx.recCaller, rt, ctx.steal)
	}

	// The router routes its own failures through ctx.fail: the abort
	// broadcast poisons this rank's mailbox too, so a worker parked in a
	// direct Recv(tagResp) unblocks instead of waiting on a router that
	// died. With batching the dispatcher is poisoned first, which wakes
	// workers parked on batch futures or window slots the same way.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(p.routerExit)
		if err := rt.Run(); err != nil {
			if p.disp != nil {
				p.disp.fail(err)
			}
			if ctx.recCaller != nil {
				ctx.recCaller.Fail(err)
			}
			if ctx.steal != nil {
				ctx.steal.fail(err)
			}
			aerr := ctx.fail("correct", err)
			ctx.sessCaller.Fail(aerr)
			ctx.sessions.fail(aerr)
			p.respErr <- aerr
		}
	}()
	return p
}

// failBoth aborts the run from the worker side and joins the router
// (which the broadcast just unblocked) and the session executor before
// returning. When the worker only observed the teardown — its endpoint
// closed under it — the router's error is the root cause and wins.
func (p *residentPlane) failBoth(ctx *rankCtx, err error) error {
	aerr := ctx.fail("correct", err)
	ctx.sessCaller.Fail(aerr)
	ctx.sessions.fail(aerr)
	p.wg.Wait()
	ctx.sessions.join()
	select {
	case rerr := <-p.respErr:
		if errors.Is(aerr, transport.ErrClosed) && !errors.Is(rerr, transport.ErrClosed) {
			return rerr
		}
	default:
	}
	return aerr
}

// quiesceCorrect drives the clean end of the correct phase: every request
// this rank issued has been answered and every session it opened is
// closed, so announce done, keep serving peers (and recovery duties) until
// the coordinator's stop, then join the router and the session executor
// and record the phase's stats.
func (ctx *rankCtx) quiesceCorrect(p *residentPlane, res *reptile.Result) error {
	if err := p.rt.AnnounceDone(); err != nil {
		return p.failBoth(ctx, err)
	}
	if ctx.rec != nil {
		// Keep executing recovery duties (replica pushes, a dead rank's
		// estate) until the stop broadcast shuts the router down; the dead
		// rank's proxy done is what lets the coordinator converge.
		if err := ctx.drainRecovery(res, p.disp, p.rt, p.routerExit); err != nil {
			return p.failBoth(ctx, err)
		}
	}
	p.wg.Wait()
	ctx.sessions.stop()
	select {
	case err := <-p.respErr:
		return err
	default:
	}

	ctx.finishCorrectStats(p.disp, p.msgs0, p.bytes0)
	return nil
}

// correctDriver is Step IV's one-shot frame, built from the same arm/
// quiesce halves the resident service uses: arm the router and session
// layer, run the driver-specific work function on the worker side — the
// batch engine corrects its resident reads as one session chunk, the
// streaming engine loops chunks through one session — then drive the
// done/stop termination protocol: a rank keeps answering remote lookups
// until *every* worker has finished.
func (ctx *rankCtx) correctDriver(work func(disp *lookupDispatcher) (reptile.Result, error)) (reptile.Result, error) {
	p := ctx.armCorrect()
	if ctx.rec != nil {
		defer ctx.disarmRecovery()
	}
	res, werr := work(p.disp)
	if werr != nil {
		return res, p.failBoth(ctx, werr)
	}
	return res, ctx.quiesceCorrect(p, &res)
}

// correctOneShot is the batch engine's work function: its whole resident
// read set travels the session layer as a single session with one
// resident chunk, so the classic reptile-correct run and a served client
// job execute the identical code path (admission, session accounting,
// worker pool, steal scheduler) — the resident chunk corrected caller-runs
// on this very goroutine.
func (ctx *rankCtx) correctOneShot() (reptile.Result, error) {
	sess, err := ctx.openSession(ctx.rank, batchTenant)
	if err != nil {
		return reptile.Result{}, err
	}
	pend, err := sess.submitResident(ctx.myReads)
	if err != nil {
		// reptile-lint:allow errorflow the submit error aborts the run; a close failure on the failing path is secondary noise
		_ = sess.Close()
		return reptile.Result{}, err
	}
	_, res, werr := pend.Wait()
	cerr := sess.Close()
	if werr != nil {
		return res, werr
	}
	return res, cerr
}

// newResponder builds the rank's correct-phase router: the three request
// tags and the batch request resolve against the owned spectra, and batch
// responses route back to this rank's own dispatcher. The router owns the
// control plane (done/stop counting, abort poison observation) and
// validates tags and frame sizes against the registry, so these handlers
// are plain callbacks.
func (ctx *rankCtx) newResponder(disp *lookupDispatcher) *msgplane.Router {
	rt := msgplane.NewRouter(ctx.e)
	rt.Handle(tagKmerReq, ctx.serve)
	rt.Handle(tagTileReq, ctx.serve)
	rt.Handle(tagUniReq, ctx.serve)
	rt.Handle(tagBatchReq, ctx.serveBatch)
	if disp != nil {
		rt.Handle(tagBatchResp, disp.deliver)
	}
	// The session plane: open/chunk/close land at this rank's executor, and
	// every session answer routes back to the opener's caller by request id.
	rt.Handle(tagSessionOpen, ctx.sessions.handleOpen)
	rt.Handle(tagReadChunk, ctx.sessions.handleChunk)
	rt.Handle(tagSessionClose, ctx.sessions.handleClose)
	rt.Handle(tagCorrectedChunk, func(m transport.Message) error {
		reqID, status, body, err := decodeSessionResp(m.Data)
		if err != nil {
			return err
		}
		return ctx.sessCaller.Deliver(m.From, msgplane.Tag(m.Tag), reqID, &sessResp{status: status, body: body})
	})
	if ctx.recCaller != nil {
		rt.Handle(tagStealGrant, func(m transport.Message) error {
			reqID, chunk, rs, granted, err := decodeStealGrant(m.Data)
			if err != nil {
				return err
			}
			return ctx.recCaller.Deliver(m.From, msgplane.Tag(m.Tag), reqID, &stealGrantMsg{chunk: chunk, rs: rs, granted: granted})
		})
		rt.Handle(tagReplAck, func(m transport.Message) error {
			reqID, err := decodeReplAck(m.Data)
			if err != nil {
				return err
			}
			return ctx.recCaller.Deliver(m.From, msgplane.Tag(m.Tag), reqID, nil)
		})
	}
	if ctx.steal != nil {
		rt.Handle(tagStealReq, ctx.serveSteal)
		rt.Handle(tagStealReturn, ctx.serveStealReturn)
	}
	if ctx.rec != nil {
		rt.Handle(tagReplPush, ctx.serveReplPush)
	}
	return rt
}

// serveSteal answers a peer's steal request: grant the back chunk of the
// local queue if any remains, an empty refusal otherwise.
func (ctx *rankCtx) serveSteal(m transport.Message) error {
	reqID, err := decodeStealReq(m.Data)
	if err != nil {
		return err
	}
	var payload []byte
	if sp, ok := ctx.steal.grant(m.From); ok {
		payload = encodeStealGrant(reqID, uint32(sp.lo), ctx.steal.reads[sp.lo:sp.hi], true)
	} else {
		payload = encodeStealGrant(reqID, 0, nil, false)
	}
	return ctx.tolerateDeadPeer(msgplane.Send(ctx.e, m.From, tagStealGrant, payload))
}

// serveStealReturn writes a thief's corrected chunk back in place.
func (ctx *rankCtx) serveStealReturn(m transport.Message) error {
	chunk, rs, err := decodeStealReturn(m.Data)
	if err != nil {
		return err
	}
	return ctx.steal.accept(chunk, rs)
}

// serveReplPush imports a re-replicated shard (an exact slab image of a
// dead rank's frozen spectrum) pushed by the shard's surviving holder, and
// acknowledges it so the pusher can report R=2 restored.
func (ctx *rankCtx) serveReplPush(m transport.Message) error {
	reqID, owner, kind, slab, err := decodeReplPush(m.Data)
	if err != nil {
		return err
	}
	store, rest, err := spectrum.ImportPackedSlabs(slab)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("core: %d trailing bytes after rank %d's pushed replica", len(rest), owner)
	}
	ctx.rec.addReplica(owner, kind, store)
	return ctx.tolerateDeadPeer(msgplane.Send(ctx.e, m.From, tagReplAck, encodeReplAck(reqID)))
}

// defaultLookupWindow is the dispatcher's per-owner in-flight frame window
// when Heuristics.LookupWindow is unset. A wave's flush issues a whole
// block's frames before awaiting any, so the window — not the block — is
// what bounds how much of a round is on the wire at once; the value comes
// from the window sweep recorded in EXPERIMENTS.md.
const defaultLookupWindow = 64

// newDispatcher builds the rank's batch dispatcher, or nil when lookup
// batching is off (the legacy one-at-a-time protocol stays in force).
func (ctx *rankCtx) newDispatcher() *lookupDispatcher {
	if ctx.opts.Heuristics.LookupBatch <= 0 {
		return nil
	}
	window := ctx.opts.Heuristics.LookupWindow
	if window == 0 {
		window = defaultLookupWindow
	}
	return newLookupDispatcher(ctx.e, ctx.np, window)
}

// waveBlock is how many reads one worker sweeps as a unit when lookups are
// batched: every read of the block advances until it needs a remote id, the
// block's staged ids travel in one combined flush, and the next sweep
// resumes the suspended reads. Larger blocks mean fewer, fuller rounds; the
// value comes from the block-size sweep recorded in EXPERIMENTS.md and
// keeps one block's answers under maxPrefetchEntries.
const waveBlock = 1024

// corrWorker is one correction worker: its oracle (over its own stats
// shard), its corrector, and the wave state of the block it is sweeping.
// The dispatcher, the prefetch plane and the spectra behind the oracle are
// shared with the rank's other workers.
type corrWorker struct {
	oracle *distOracle
	c      *reptile.Corrector
	walks  []reptile.Walk // one per read of the current block
	live   []int32        // block indices of the reads still walking
}

// newWorker builds a correction worker counting into st.
func (ctx *rankCtx) newWorker(st *stats.Rank, disp *lookupDispatcher, cacheMu *sync.RWMutex) (*corrWorker, error) {
	oracle := &distOracle{
		e:         ctx.e,
		st:        st,
		rank:      ctx.rank,
		np:        ctx.np,
		h:         ctx.opts.Heuristics,
		ownKmer:   ctx.ownKmer,
		ownTile:   ctx.ownTile,
		replKmer:  ctx.replKmer,
		replTile:  ctx.replTile,
		groupKmer: ctx.groupKmer,
		groupTile: ctx.groupTile,
		readsKmer: ctx.readsKmer,
		readsTile: ctx.readsTile,
		cacheKmer: ctx.cacheKmer,
		cacheTile: ctx.cacheTile,
		groupSize: ctx.opts.Heuristics.PartialReplicationGroup,
		disp:      disp,
		cacheMu:   cacheMu,
		rec:       ctx.rec,
	}
	if ctx.np > 1 && (ctx.replKmer == nil || ctx.replTile == nil) {
		// Otherwise no lookup can leave the rank (one rank, or both spectra
		// replicated): the worker takes the blocking loop and pays nothing
		// for a wave that would never suspend.
		oracle.plane = ctx.plane
	}
	c, err := reptile.NewCorrector(ctx.opts.Config, oracle)
	if err != nil {
		return nil, err
	}
	return &corrWorker{oracle: oracle, c: c}, nil
}

// correct corrects rs in place — the one correction loop behind the worker
// pool, stolen and reclaimed chunks, served session chunks and a dead
// rank's estate. Under the legacy protocol every lookup blocks, so it is a
// plain loop over the reads; with batching on it waves over rs a block at a
// time.
func (w *corrWorker) correct(rs []reads.Read) (reptile.Result, error) {
	var res reptile.Result
	if w.oracle.plane == nil {
		for i := range rs {
			res.Add(w.c.CorrectRead(&rs[i]))
			if w.oracle.err != nil {
				return res, w.oracle.err
			}
		}
		return res, nil
	}
	for len(rs) > 0 {
		n := min(len(rs), waveBlock)
		if err := w.wave(rs[:n], &res); err != nil {
			return res, err
		}
		rs = rs[n:]
	}
	return res, nil
}

// wave corrects one block: sweep every live read forward until it finishes
// or suspends on a remote id, drain the plane once for the whole sweep,
// and sweep what is left, until nothing is. Reads are independent against
// the frozen spectra, so the order they finish in changes nothing.
//
// reptile-lint:hotpath
func (w *corrWorker) wave(blk []reads.Read, res *reptile.Result) error {
	plane := w.oracle.plane
	plane.beginBlock()
	defer plane.endBlock()
	if cap(w.walks) < len(blk) {
		w.walks = make([]reptile.Walk, len(blk))
		w.live = make([]int32, len(blk))
	}
	walks, live := w.walks[:len(blk)], w.live[:len(blk)]
	clear(walks)
	for i := range live {
		live[i] = int32(i)
	}
	for {
		n := 0
		for _, i := range live {
			if !w.c.Advance(&blk[i], &walks[i]) {
				live[n] = i
				n++
			}
		}
		if w.oracle.err != nil {
			return w.oracle.err
		}
		if n == 0 {
			break
		}
		live = live[:n]
		if err := plane.drain(w.oracle); err != nil {
			return err
		}
	}
	for i := range walks {
		res.Add(walks[i].Res)
	}
	return nil
}

// workerPool runs body on Heuristics.Workers correction workers (the
// paper's plural "worker threads"; one when unset, run on the calling
// goroutine) and joins them. Lookup counters accumulate into per-worker
// shards merged after the join, keeping the shared stats race-free.
func (ctx *rankCtx) workerPool(disp *lookupDispatcher, body func(w *corrWorker, idx, nw int) (reptile.Result, error)) (reptile.Result, error) {
	nw := max(ctx.opts.Heuristics.Workers, 1)
	// The reads tables are shared across workers; only the CacheRemote
	// heuristic writes to them during correction, so only then do lookups
	// need the cache lock.
	var cacheMu *sync.RWMutex
	if ctx.opts.Heuristics.CacheRemote && nw > 1 {
		cacheMu = &sync.RWMutex{}
	}
	shards := make([]stats.Rank, nw)
	results := make([]reptile.Result, nw)
	errs := make([]error, nw)
	run := func(idx int) {
		w, err := ctx.newWorker(&shards[idx], disp, cacheMu)
		if err == nil {
			results[idx], err = body(w, idx, nw)
		}
		errs[idx] = err
	}
	if nw == 1 {
		run(0)
	} else {
		// A worker that fails holds a transport error, which the router sees
		// on the same endpoint: its failure path poisons the dispatcher, so no
		// sibling stays parked on a batch future and the join cannot hang.
		var pool sync.WaitGroup
		for idx := 0; idx < nw; idx++ {
			pool.Add(1)
			go func(idx int) {
				defer pool.Done()
				run(idx)
			}(idx)
		}
		pool.Wait()
	}

	// Workers fail together when a peer dies: the one whose send drew the
	// fault holds the root cause, its siblings wake with the derived
	// teardown error (ErrClosed) from the poisoned dispatcher. Surface the
	// root cause regardless of worker index.
	var res reptile.Result
	var werr error
	for idx := 0; idx < nw; idx++ {
		res.Add(results[idx])
		ctx.st.AddLookups(&shards[idx])
		if errs[idx] == nil {
			continue
		}
		if werr == nil || (errors.Is(werr, transport.ErrClosed) && !errors.Is(errs[idx], transport.ErrClosed)) {
			werr = errs[idx]
		}
	}
	return res, werr
}

// correctPool corrects myReads on the worker pool. Reads are partitioned
// into contiguous sub-ranges, one per worker, and each is corrected in
// place exactly once against static spectra, so the corrected output is
// byte-identical for every worker count.
func (ctx *rankCtx) correctPool(myReads []reads.Read, disp *lookupDispatcher) (reptile.Result, error) {
	return ctx.workerPool(disp, func(w *corrWorker, idx, nw int) (reptile.Result, error) {
		return w.correct(myReads[len(myReads)*idx/nw : len(myReads)*(idx+1)/nw])
	})
}

// finishCorrectStats records the correction phase's communication and
// memory counters after a clean termination: per-destination request
// traffic for the machine model (responses and control messages excluded:
// we count the requester's per-dest sends minus the pre-phase snapshot, and
// the model accounts responses on the requester's round trip already), plus
// the batching totals.
func (ctx *rankCtx) finishCorrectStats(disp *lookupDispatcher, msgs0, bytes0 []int64) {
	if disp != nil {
		b, n := disp.counters()
		ctx.st.BatchesSent += b
		ctx.st.BatchedLookups += n
	}
	if ctx.steal != nil {
		ctx.st.ChunksLent = ctx.steal.chunksLent()
	}
	if ctx.sessions != nil {
		ctx.st.SessionsOpened, ctx.st.SessionsCompleted,
			ctx.st.SessionsRejected, ctx.st.SessionReads = ctx.sessions.counters()
	}
	nw := ctx.opts.Heuristics.Workers
	if nw < 1 {
		nw = 1
	}
	ctx.st.WorkerCount = int64(nw)
	msgs1, bytes1 := ctx.e.Counters().PerDestSnapshot()
	ctx.st.MsgsTo = make([]int64, ctx.np)
	ctx.st.BytesTo = make([]int64, ctx.np)
	for d := range msgs1 {
		ctx.st.MsgsTo[d] = msgs1[d] - msgs0[d]
		ctx.st.BytesTo[d] = bytes1[d] - bytes0[d]
	}
	ctx.st.MemAfterCorrect = ctx.currentMem()
	ctx.observeMem() // the remote-lookup cache may have grown
}

// serve answers one count request from the owned spectra. In the
// non-universal ("probe") mode the kind is implied by the tag; in universal
// mode it is read from the payload — the structural difference the paper's
// universal heuristic describes. Frame sizes were already validated by the
// router against the registry.
func (ctx *rankCtx) serve(m transport.Message) error {
	kind, id, err := decodeReq(msgplane.Tag(m.Tag), m.Data)
	if err != nil {
		return err
	}
	store, err := ctx.lookupStore(kind, id)
	if err != nil {
		return err
	}
	cnt, ok := store.Count(id)
	ctx.st.RequestsServed++
	return ctx.tolerateDeadPeer(msgplane.Send(ctx.e, m.From, tagResp, encodeResp(cnt, ok)))
}

// serveBatch answers one batch request: every id is resolved against the
// owned spectra and the answers travel back in one frame, positionally,
// echoing the request id so the requester's dispatcher can match it.
func (ctx *rankCtx) serveBatch(m transport.Message) error {
	reqID, kind, ids, err := decodeBatchReq(m.Data)
	if err != nil {
		return err
	}
	// The router goroutine is the only caller, and the encoder copies the
	// answers into the frame, so one scratch slice serves every request.
	answers := ctx.batchAns[:0]
	for _, id := range ids {
		store, err := ctx.lookupStore(kind, id)
		if err != nil {
			return err
		}
		cnt, ok := store.Count(id)
		answers = append(answers, batchAnswer{Count: cnt, Exists: ok})
	}
	ctx.batchAns = answers
	ctx.st.RequestsServed += int64(len(ids))
	return ctx.tolerateDeadPeer(msgplane.Send(ctx.e, m.From, tagBatchResp, encodeBatchResp(reqID, answers)))
}

// ownedStore maps a request kind to this rank's frozen owned spectrum,
// served through the Lookuper interface — the responder reads the same
// immutable PackedStores the local lookup chain does.
func (ctx *rankCtx) ownedStore(kind byte) (spectrum.Lookuper, error) {
	switch kind {
	case kindKmer:
		return ctx.ownKmer, nil
	case kindTile:
		return ctx.ownTile, nil
	}
	return nil, fmt.Errorf("core: request kind %d", kind)
}

// ProjectOptsFor returns the machine-model options matching this run's
// heuristics and wire sizes.
func ProjectOptsFor(h Heuristics) (universal bool, reqBytes, respBytes int) {
	reqBytes = ReqBytesTagged
	if h.Universal {
		reqBytes = ReqBytesUniversal
	}
	return h.Universal, reqBytes, RespBytes
}
