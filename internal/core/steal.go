package core

import (
	"fmt"
	"sync"

	"reptile/internal/msgplane"
	"reptile/internal/reads"
	"reptile/internal/reptile"
	"reptile/internal/stats"
)

// span is one correction chunk: a half-open index range into the rank's
// resident reads. Its lo index doubles as the chunk id on the wire —
// unique because chunks never overlap.
type span struct{ lo, hi int }

// stealSched is one rank's correct-phase work queue under Options.WorkSteal:
// the resident reads cut into ChunkReads-sized chunks. Local workers pop
// from the front; a peer's steal request is granted from the back (the
// classic steal-from-the-tail split, minimizing contention with the local
// scan); a granted chunk stays on loan until the thief returns its
// corrected reads, which are copied back in place — so the output is
// byte-identical to a run with no stealing, in any interleaving.
type stealSched struct {
	reads []reads.Read

	mu      sync.Mutex
	cond    *sync.Cond // signaled when a loan resolves or the sched fails
	spans   []span
	granted map[uint32]grantRec
	lent    int64 // chunks granted to thieves, for the stats summary
	failed  error
}

// grantRec is one chunk on loan.
type grantRec struct {
	sp    span
	thief int
}

// newStealSched cuts rs into chunks of at most chunk reads.
func newStealSched(rs []reads.Read, chunk int) *stealSched {
	if chunk < 1 {
		chunk = 1
	}
	s := &stealSched{reads: rs, granted: make(map[uint32]grantRec)}
	s.cond = sync.NewCond(&s.mu)
	for lo := 0; lo < len(rs); lo += chunk {
		hi := lo + chunk
		if hi > len(rs) {
			hi = len(rs)
		}
		s.spans = append(s.spans, span{lo: lo, hi: hi})
	}
	return s
}

// next pops the front chunk for a local worker.
func (s *stealSched) next() (span, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.spans) == 0 {
		return span{}, false
	}
	sp := s.spans[0]
	s.spans = s.spans[1:]
	return sp, true
}

// grant pops the back chunk for a remote thief and records the loan.
func (s *stealSched) grant(thief int) (span, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.spans) == 0 {
		return span{}, false
	}
	sp := s.spans[len(s.spans)-1]
	s.spans = s.spans[:len(s.spans)-1]
	s.granted[uint32(sp.lo)] = grantRec{sp: sp, thief: thief}
	s.lent++
	return sp, true
}

// accept resolves a loan: the thief's corrected reads replace the chunk in
// place. Called from the router goroutine.
func (s *stealSched) accept(chunk uint32, rs []reads.Read) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.granted[chunk]
	if !ok {
		return fmt.Errorf("core: steal return for chunk %d, which is not on loan", chunk)
	}
	if len(rs) != g.sp.hi-g.sp.lo {
		return fmt.Errorf("core: steal return for chunk %d carries %d reads, want %d", chunk, len(rs), g.sp.hi-g.sp.lo)
	}
	copy(s.reads[g.sp.lo:g.sp.hi], rs)
	delete(s.granted, chunk)
	s.cond.Broadcast()
	return nil
}

// reclaim re-queues every chunk on loan to a thief whose loss the recovery
// layer absorbed; the victim corrects them itself while settling.
func (s *stealSched) reclaim(thief int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, g := range s.granted {
		if g.thief != thief {
			continue
		}
		delete(s.granted, id)
		s.spans = append(s.spans, g.sp)
	}
	s.cond.Broadcast()
}

// fail poisons the scheduler so a victim blocked in drain wakes with the
// run's failure instead of waiting on a loan that will never resolve.
func (s *stealSched) fail(err error) {
	if err == nil {
		err = fmt.Errorf("core: steal scheduler failed with nil error")
	}
	s.mu.Lock()
	if s.failed == nil {
		s.failed = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// drain is the victim's settling loop: pop a (possibly reclaimed) chunk to
// correct inline, or block until every loan resolves. Returns ok=false with
// a nil error when the queue is empty and nothing is on loan.
func (s *stealSched) drain() (span, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.failed != nil {
			return span{}, false, s.failed
		}
		if len(s.spans) > 0 {
			sp := s.spans[0]
			s.spans = s.spans[1:]
			return sp, true, nil
		}
		if len(s.granted) == 0 {
			return span{}, false, nil
		}
		s.cond.Wait()
	}
}

// chunksLent returns how many chunks thieves took from this rank.
func (s *stealSched) chunksLent() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lent
}

// stealGrantMsg is a decoded tagStealGrant response, routed through the
// recovery caller.
type stealGrantMsg struct {
	chunk   uint32
	rs      []reads.Read
	granted bool
}

// correctPoolSteal is correctPool's work-stealing variant: the workers
// drain the chunk queue instead of owning fixed block partitions, then the
// rank turns thief — stealing chunks from still-busy peers — and finally
// settles its own loans. Chunk-id write-back keeps the corrected output
// byte-identical to the non-stealing run.
func (ctx *rankCtx) correctPoolSteal(disp *lookupDispatcher) (reptile.Result, error) {
	res, err := ctx.workerPool(disp, func(w *corrWorker, _, _ int) (reptile.Result, error) {
		var res reptile.Result
		for {
			sp, ok := ctx.steal.next()
			if !ok {
				return res, nil
			}
			r, err := w.correct(ctx.steal.reads[sp.lo:sp.hi])
			res.Add(r)
			if err != nil {
				return res, err
			}
		}
	})
	if err != nil {
		return res, err
	}
	if err := ctx.stealLoop(disp, &res); err != nil {
		return res, err
	}
	return res, ctx.stealSettle(disp, &res)
}

// stealLoop is the thief side: with the local queue dry, round-robin the
// live peers for chunks until one full cycle yields nothing. Stolen reads
// are corrected here (against the same static spectra, so the bytes are
// what the victim would have produced) and returned to the victim by chunk
// id over the one-way return tag.
func (ctx *rankCtx) stealLoop(disp *lookupDispatcher, res *reptile.Result) error {
	rc := ctx.recCaller
	if rc == nil || ctx.np < 2 {
		return nil
	}
	var shard stats.Rank
	w, err := ctx.newWorker(&shard, disp, nil)
	if err != nil {
		return err
	}
	defer ctx.st.AddLookups(&shard)
	for {
		stole := false
		for off := 1; off < ctx.np; off++ {
			victim := (ctx.rank + off) % ctx.np
			if ctx.rec != nil && ctx.rec.isDead(victim) {
				continue
			}
			g, err := ctx.stealFrom(rc, victim)
			if err != nil {
				// A victim dying mid-steal is survivable when recovery is
				// armed; its un-returned chunks are redone with its estate.
				if ctx.tolerateDeadPeer(err) == nil {
					continue
				}
				return err
			}
			if g == nil {
				continue
			}
			stole = true
			r, err := w.correct(g.rs)
			res.Add(r)
			if err != nil {
				return err
			}
			ctx.st.ChunksStolen++
			if err := msgplane.Send(ctx.e, victim, tagStealReturn, encodeStealReturn(g.chunk, g.rs)); err != nil {
				if ctx.tolerateDeadPeer(err) == nil {
					continue
				}
				return err
			}
		}
		if !stole {
			return nil
		}
	}
}

// stealFrom asks one victim for a chunk; nil without error means the victim
// had nothing to give.
func (ctx *rankCtx) stealFrom(rc *msgplane.Caller, victim int) (*stealGrantMsg, error) {
	call, err := rc.Start(victim, 1, func(reqID uint32) (msgplane.Tag, []byte) {
		return encodeStealReqFrame(reqID)
	})
	if err != nil {
		return nil, err
	}
	v, err := call.Wait()
	if err != nil {
		return nil, err
	}
	g, ok := v.(*stealGrantMsg)
	if !ok {
		return nil, fmt.Errorf("core: steal call resolved with %T", v)
	}
	if !g.granted {
		return nil, nil
	}
	return g, nil
}

// stealSettle waits for this rank's loans to come home, correcting any
// reclaimed chunk (a dead thief's) inline.
func (ctx *rankCtx) stealSettle(disp *lookupDispatcher, res *reptile.Result) error {
	var (
		shard stats.Rank
		w     *corrWorker
	)
	defer ctx.st.AddLookups(&shard)
	for {
		sp, ok, err := ctx.steal.drain()
		if err != nil || !ok {
			return err
		}
		if w == nil {
			if w, err = ctx.newWorker(&shard, disp, nil); err != nil {
				return err
			}
		}
		r, err := w.correct(ctx.steal.reads[sp.lo:sp.hi])
		res.Add(r)
		if err != nil {
			return err
		}
	}
}
