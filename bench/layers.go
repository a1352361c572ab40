package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"reptile/internal/collective"
	"reptile/internal/core"
	"reptile/internal/fastaio"
	"reptile/internal/kmer"
	"reptile/internal/msgplane"
	"reptile/internal/reads"
	"reptile/internal/reptile"
	"reptile/internal/serve"
	"reptile/internal/snapshot"
	"reptile/internal/spectrum"
	"reptile/internal/stats"
	"reptile/internal/transport"
)

// layerMetric names one per-layer number of the traced run. README.md says
// which end-to-end metric, on which workload, each is expected to move.
type layerMetric struct{ Name, Unit string }

var layerMetrics = []layerMetric{
	{"genome.generate_s", "s"},
	{"fastaio.parse_ns_per_read", "ns"},
	{"fastaio.parse_mb_per_s", "MB/s"},
	{"fastaio.write_ns_per_read", "ns"},
	{"reads.encode_ns_per_read", "ns"},
	{"reads.decode_ns_per_read", "ns"},
	{"reads.wire_bytes_per_read", "B"},
	{"kmer.extract_ns_per_read", "ns"},
	{"kmer.walk_ns_per_read", "ns"},
	{"spectrum.insert_ns_per_id", "ns"},
	{"spectrum.freeze_ns_per_entry", "ns"},
	{"spectrum.probe_hit_ns", "ns"},
	{"spectrum.probe_miss_ns", "ns"},
	{"spectrum.bytes_per_entry", "B"},
	{"spectrum.table_mb", "MiB"},
	{"reptile.correct_ns_per_read", "ns"},
	{"reptile.lookups_per_read", "count"},
	{"reptile.allocs_per_read", "count"},
	{"transport.rtt_us", "us"},
	{"transport.mb_per_s", "MB/s"},
	{"collective.alltoallv_mb_per_s", "MB/s"},
	{"collective.barrier_us", "us"},
	{"msgplane.call_rtt_us", "us"},
	{"snapshot.write_mb_per_s", "MB/s"},
	{"snapshot.read_mb_per_s", "MB/s"},
	{"snapshot.bytes_per_entry", "B"},
	{"core.read_s", "s"},
	{"core.balance_s", "s"},
	{"core.snapshot_s", "s"},
	{"core.spectrum_s", "s"},
	{"core.exchange_s", "s"},
	{"core.correct_s", "s"},
	{"core.phase_sum_over_wall", "ratio"},
	{"core.remote_lookups_per_read", "count"},
	{"core.msgs_per_read", "count"},
	{"core.wire_bytes_per_read", "B"},
	{"core.ids_per_frame", "count"},
	{"core.spec_wire_bytes_per_entry", "B"},
	{"core.owned_mem_mb", "MiB"},
	{"core.rank_mem_max_mb", "MiB"},
	{"core.remote_wait_frac", "ratio"},
	{"core.latency_term_s", "s"},
	{"core.bandwidth_term_s", "s"},
	{"core.session_chunk_us", "us"},
	{"serve.door_overhead_us", "us"},
	{"serve.chunk_p99_ms", "ms"},
	{"serve.rejected", "count"},
}

// exactLayerMetrics are counts of work done, not times: two runs of one tree
// on one seed must report them bit for bit.
func exactLayerMetrics(w workload) []string {
	exact := []string{
		"reads.wire_bytes_per_read", "spectrum.bytes_per_entry", "spectrum.table_mb",
		"reptile.lookups_per_read", "snapshot.bytes_per_entry",
		"core.spec_wire_bytes_per_entry", "core.owned_mem_mb",
	}
	if w.Workers <= 1 {
		// With several correction workers the shared prefetch plane answers
		// some lookups from another worker's frame, and which ones depends on
		// scheduling.
		exact = append(exact, "core.remote_lookups_per_read")
	}
	return exact
}

const (
	tagPing msgplane.Tag = 120 // reqID u32
	tagPong msgplane.Tag = 121 // reqID u32
)

func init() {
	msgplane.Register(
		msgplane.Spec{Tag: tagPing, Name: "bench.ping", Dir: msgplane.DirRequest, MinSize: 4, MaxSize: 4},
		msgplane.Spec{Tag: tagPong, Name: "bench.pong", Dir: msgplane.DirResponse, MinSize: 4, MaxSize: 4},
	)
}

// Raw transport tags of the point-to-point probes. They never share an
// endpoint with a router.
const (
	rawPing = 100
	rawPong = 101
	rawBulk = 102
)

// layerRun carries one traced run.
type layerRun struct {
	w   workload
	d   *data
	dir string
	tr  *tracer
	m   map[string]float64

	rs     []reads.Read // the dataset as parsed back from disk
	pk, pt *spectrum.PackedStore
	chk    *checker // expects the sequential corrector's output

	mu             sync.Mutex // guards the two counters below
	checks, failed int64      // outputs checked (reads or chunks) and found wrong
}

// traceWorkload measures every layer from outside, on w's own inputs and
// configuration, and returns the per-layer metrics.
func traceWorkload(w workload, d *data, dir string, tr *tracer) (*layerRun, error) {
	lr := &layerRun{w: w, d: d, dir: dir, tr: tr, m: make(map[string]float64)}
	n := float64(len(d.ds.Reads))
	lr.m["genome.generate_s"] = d.generateS
	lr.m["fastaio.write_ns_per_read"] = d.writeS * 1e9 / n
	steps := []func() error{lr.parse, lr.codec, lr.build, lr.correct, lr.snapshots, lr.wires}
	if w.Served {
		steps = append(steps, lr.service)
	} else {
		steps = append(steps, lr.batch)
	}
	if w.Ranks > 1 {
		steps = append(steps, lr.remoteWait)
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return lr, nil
}

func (lr *layerRun) parse() error {
	var err error
	dur := lr.tr.time("fastaio.parse", -1, func() {
		lr.rs, err = fastaio.ReadShard(lr.d.fasta, lr.d.qual, 0, 1)
	})
	if err != nil {
		return err
	}
	if len(lr.rs) != len(lr.d.ds.Reads) {
		return fmt.Errorf("parsed %d reads of %d written", len(lr.rs), len(lr.d.ds.Reads))
	}
	lr.m["fastaio.parse_ns_per_read"] = float64(dur.Nanoseconds()) / float64(len(lr.rs))
	lr.m["fastaio.parse_mb_per_s"] = float64(lr.d.inputBytes) / 1e6 / dur.Seconds()
	return nil
}

// sample is the prefix of the dataset the codec and probe steps work on.
func (lr *layerRun) sample(max int) []reads.Read {
	if len(lr.rs) < max {
		max = len(lr.rs)
	}
	return lr.rs[:max]
}

func (lr *layerRun) codec() error {
	rs := lr.sample(100_000)
	chunk := lr.w.ChunkReads
	if chunk == 0 {
		chunk = 4096 // the batch engine's balance exchange ships whole shards; any size times the codec
	}
	var bufs [][]byte
	wire := 0
	enc := lr.tr.time("reads.encode", -1, func() {
		for lo := 0; lo < len(rs); lo += chunk {
			b := reads.EncodeBatch(rs[lo:min(lo+chunk, len(rs))])
			wire += len(b)
			bufs = append(bufs, b)
		}
	})
	var err error
	decoded := 0
	dec := lr.tr.time("reads.decode", -1, func() {
		for _, b := range bufs {
			var out []reads.Read
			if out, err = reads.DecodeBatch(b); err != nil {
				return
			}
			decoded += len(out)
		}
	})
	if err != nil {
		return err
	}
	if decoded != len(rs) {
		return fmt.Errorf("codec round trip returned %d reads of %d", decoded, len(rs))
	}
	lr.m["reads.encode_ns_per_read"] = float64(enc.Nanoseconds()) / float64(len(rs))
	lr.m["reads.decode_ns_per_read"] = float64(dec.Nanoseconds()) / float64(len(rs))
	lr.m["reads.wire_bytes_per_read"] = float64(wire) / float64(len(rs))
	return nil
}

// build constructs the whole spectrum the way reptile.BuildSpectra does, but
// with extraction and insertion in separate spans per block of reads so the
// two layers are timed apart while the tables grow to their real size.
func (lr *layerRun) build() error {
	cfg := lr.d.spec.config()
	spec := cfg.Spec
	kmers := spectrum.NewHash(len(lr.rs) * 8)
	tiles := spectrum.NewHash(len(lr.rs) * 2)
	var kbuf, tbuf []kmer.ID
	addK := func(_ int, id kmer.ID) { kbuf = append(kbuf, id) }
	addT := func(_ int, id kmer.ID) { tbuf = append(tbuf, id) }
	var extract, insert time.Duration
	ids := 0
	root := lr.tr.begin("spectrum.build", -1)
	for lo := 0; lo < len(lr.rs); lo += 4096 {
		block := lr.rs[lo:min(lo+4096, len(lr.rs))]
		kbuf, tbuf = kbuf[:0], tbuf[:0]
		extract += lr.tr.time("kmer.extract", root, func() {
			for i := range block {
				spec.EachKmer(block[i].Base, addK)
				spec.EachTileStep(block[i].Base, 1, addT)
			}
		})
		insert += lr.tr.time("spectrum.insert", root, func() {
			for _, id := range kbuf {
				kmers.Add(id, 1)
			}
			for _, id := range tbuf {
				tiles.Add(id, 1)
			}
		})
		ids += len(kbuf) + len(tbuf)
	}
	lr.tr.time("spectrum.prune", root, func() {
		kmers.Prune(cfg.KmerThreshold)
		tiles.Prune(cfg.TileThreshold)
	})
	freeze := lr.tr.time("spectrum.freeze", root, func() {
		lr.pk, lr.pt = spectrum.Freeze(kmers), spectrum.Freeze(tiles)
	})
	lr.tr.end(root)

	var walked int
	walk := lr.tr.time("kmer.walk", -1, func() {
		for i := range lr.rs {
			tbuf = spec.AppendTiles(lr.rs[i].Base, tbuf[:0])
			walked += len(tbuf)
		}
	})
	if walked == 0 {
		return errors.New("no read is long enough for one tile")
	}
	entries := float64(lr.pk.Len() + lr.pt.Len())
	mem := float64(lr.pk.MemBytes() + lr.pt.MemBytes())
	n := float64(len(lr.rs))
	lr.m["kmer.extract_ns_per_read"] = float64(extract.Nanoseconds()) / n
	lr.m["kmer.walk_ns_per_read"] = float64(walk.Nanoseconds()) / n
	lr.m["spectrum.insert_ns_per_id"] = float64(insert.Nanoseconds()) / float64(ids)
	lr.m["spectrum.freeze_ns_per_entry"] = float64(freeze.Nanoseconds()) / entries
	lr.m["spectrum.bytes_per_entry"] = mem / entries
	lr.m["spectrum.table_mb"] = mem / (1 << 20)
	return nil
}

// recordingOracle notes which ids a correction walk really asks for, split
// by outcome, so the probe timing below replays the workload's own queries.
type recordingOracle struct {
	reptile.LocalOracle
	kHit, kMiss, tHit, tMiss []kmer.ID
}

func (o *recordingOracle) KmerCount(id kmer.ID) (uint32, bool) {
	c, ok := o.LocalOracle.KmerCount(id)
	if ok {
		o.kHit = append(o.kHit, id)
	} else {
		o.kMiss = append(o.kMiss, id)
	}
	return c, ok
}

func (o *recordingOracle) TileCount(id kmer.ID) (uint32, bool) {
	c, ok := o.LocalOracle.TileCount(id)
	if ok {
		o.tHit = append(o.tHit, id)
	} else {
		o.tMiss = append(o.tMiss, id)
	}
	return c, ok
}

var probeSink uint32 // keeps the probe loops from being optimised away

func probe(st *spectrum.PackedStore, ids []kmer.ID) {
	var sum uint32
	for _, id := range ids {
		c, _ := st.Count(id)
		sum += c
	}
	probeSink += sum
}

func cloneReads(rs []reads.Read) []reads.Read {
	out := make([]reads.Read, len(rs))
	for i := range rs {
		out[i] = rs[i].Clone()
	}
	return out
}

// correct times the sequential corrector over the frozen table. Its output
// is the reference the engine runs further down are checked against.
func (lr *layerRun) correct() error {
	cfg := lr.d.spec.config()
	rec := &recordingOracle{LocalOracle: reptile.LocalOracle{Kmers: lr.pk, Tiles: lr.pt}}
	rc, err := reptile.NewCorrector(cfg, rec)
	if err != nil {
		return err
	}
	rc.CorrectBatch(cloneReads(lr.sample(20_000)))
	hits, misses := len(rec.kHit)+len(rec.tHit), len(rec.kMiss)+len(rec.tMiss)
	hit := lr.tr.time("spectrum.probe_hit", -1, func() { probe(lr.pk, rec.kHit); probe(lr.pt, rec.tHit) })
	miss := lr.tr.time("spectrum.probe_miss", -1, func() { probe(lr.pk, rec.kMiss); probe(lr.pt, rec.tMiss) })
	if hits > 0 {
		lr.m["spectrum.probe_hit_ns"] = float64(hit.Nanoseconds()) / float64(hits)
	}
	if misses > 0 {
		lr.m["spectrum.probe_miss_ns"] = float64(miss.Nanoseconds()) / float64(misses)
	}

	oracle := &reptile.LocalOracle{Kmers: lr.pk, Tiles: lr.pt}
	c, err := reptile.NewCorrector(cfg, oracle)
	if err != nil {
		return err
	}
	work := cloneReads(lr.rs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dur := lr.tr.time("reptile.correct", -1, func() { c.CorrectBatch(work) })
	runtime.ReadMemStats(&after)
	n := float64(len(work))
	lr.m["reptile.correct_ns_per_read"] = float64(dur.Nanoseconds()) / n
	lr.m["reptile.lookups_per_read"] = float64(oracle.KmerLookups+oracle.TileLookups) / n
	lr.m["reptile.allocs_per_read"] = float64(after.Mallocs-before.Mallocs) / n

	lr.chk = &checker{ds: lr.d.ds, want: make([]uint64, len(work))}
	for i := range work {
		lr.chk.want[i] = readHash(&work[i])
	}
	return nil
}

func (lr *layerRun) snapshots() error {
	cfg := lr.d.spec.config()
	p := snapshot.Params{
		K: cfg.Spec.K, Overlap: cfg.Spec.Overlap,
		KmerThreshold: cfg.KmerThreshold, TileThreshold: cfg.TileThreshold, NP: 1, Rank: 0,
	}
	path := filepath.Join(lr.dir, "probe.rsnap")
	var size int64
	var err error
	wr := lr.tr.time("snapshot.write", -1, func() { size, err = snapshot.Write(path, p, lr.pk, lr.pt) })
	if err != nil {
		return err
	}
	var k2, t2 *spectrum.PackedStore
	rd := lr.tr.time("snapshot.read", -1, func() { _, k2, t2, _, err = snapshot.Read(path) })
	if err != nil {
		return err
	}
	if k2.Len() != lr.pk.Len() || t2.Len() != lr.pt.Len() {
		return errors.New("snapshot round trip lost entries")
	}
	lr.m["snapshot.write_mb_per_s"] = float64(size) / 1e6 / wr.Seconds()
	lr.m["snapshot.read_mb_per_s"] = float64(size) / 1e6 / rd.Seconds()
	lr.m["snapshot.bytes_per_entry"] = float64(size) / float64(lr.pk.Len()+lr.pt.Len())
	// The engine runs below build their own tables; drop this one first.
	lr.pk, lr.pt = nil, nil
	return os.Remove(path)
}

// runGroup forms an np-rank group on the workload's transport, runs fn on
// every rank concurrently, and closes the group. It returns when fn started
// and how long the slowest rank took.
func runGroup(tcp bool, np int, fn func(e *transport.Endpoint) error) (time.Time, time.Duration, error) {
	eps := make([]*transport.Endpoint, np)
	errs := make([]error, np+1)
	var wg sync.WaitGroup
	if tcp {
		addrs, err := freeAddrs(np)
		if err != nil {
			return time.Time{}, 0, err
		}
		for r := range eps {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				eps[r], errs[r] = transport.NewTCP(transport.TCPConfig{Rank: r, Addrs: addrs})
			}(r)
		}
		wg.Wait()
	} else {
		eps, errs[np] = transport.NewProcGroup(np)
	}
	if err := errors.Join(errs...); err != nil {
		for _, e := range eps {
			if e != nil {
				err = errors.Join(err, e.Close())
			}
		}
		return time.Time{}, 0, err
	}
	start := time.Now()
	for r := range eps {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(eps[r])
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	errs[np] = transport.CloseGroup(eps)
	return start, elapsed, errors.Join(errs...)
}

// wires times the communication layers on the workload's transport: raw
// point-to-point, the collectives, and the message plane's matched call.
func (lr *layerRun) wires() error {
	const (
		pings  = 2000
		frames = 64
		frame  = 1 << 20
		rounds = 16
	)
	var rtt, bulk, barrier, a2a, call time.Duration
	timed := func(e *transport.Endpoint, d *time.Duration, fn func() error) error {
		t := time.Now()
		err := fn()
		if e.Rank() == 0 {
			*d = time.Since(t)
		}
		return err
	}
	start, elapsed, err := runGroup(lr.w.TCP, 2, func(e *transport.Endpoint) error {
		peer := 1 - e.Rank()
		if err := timed(e, &rtt, func() error { return pingPong(e, peer, pings) }); err != nil {
			return err
		}
		if err := timed(e, &bulk, func() error { return bulkSend(e, peer, frames, frame) }); err != nil {
			return err
		}
		comm := collective.New(e)
		if err := timed(e, &barrier, func() error {
			for i := 0; i < pings; i++ {
				if err := comm.Barrier(); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if err := timed(e, &a2a, func() error {
			for i := 0; i < rounds; i++ {
				if _, err := comm.Alltoallv([][]byte{make([]byte, frame), make([]byte, frame)}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		return timed(e, &call, func() error { return matchedCalls(e, peer, pings) })
	})
	if err != nil {
		return fmt.Errorf("transport probes: %w", err)
	}
	root := lr.tr.add("transport.probes", -1, start, elapsed)
	at := start
	for _, s := range []struct {
		name string
		d    time.Duration
	}{{"transport.pingpong", rtt}, {"transport.bulk", bulk}, {"collective.barrier", barrier}, {"collective.alltoallv", a2a}, {"msgplane.call", call}} {
		lr.tr.add(s.name, root, at, s.d)
		at = at.Add(s.d)
	}
	lr.m["transport.rtt_us"] = float64(rtt.Microseconds()) / pings
	lr.m["transport.mb_per_s"] = frames * frame / 1e6 / bulk.Seconds()
	lr.m["collective.barrier_us"] = float64(barrier.Microseconds()) / pings
	lr.m["collective.alltoallv_mb_per_s"] = rounds * frame / 1e6 / a2a.Seconds()
	lr.m["msgplane.call_rtt_us"] = float64(call.Microseconds()) / pings
	return nil
}

func pingPong(e *transport.Endpoint, peer, n int) error {
	for i := 0; i < n; i++ {
		if e.Rank() == 0 {
			if err := e.Send(peer, rawPing, make([]byte, 8)); err != nil {
				return err
			}
			if _, err := e.Recv(rawPong); err != nil {
				return err
			}
		} else {
			if _, err := e.Recv(rawPing); err != nil {
				return err
			}
			if err := e.Send(peer, rawPong, make([]byte, 8)); err != nil {
				return err
			}
		}
	}
	return nil
}

// bulkSend streams n frames from rank 0 and waits for the receiver's ack.
func bulkSend(e *transport.Endpoint, peer, n, size int) error {
	if e.Rank() != 0 {
		for i := 0; i < n; i++ {
			if _, err := e.Recv(rawBulk); err != nil {
				return err
			}
		}
		return e.Send(peer, rawPong, nil)
	}
	bufs := make([][]byte, n) // the transport owns a payload once sent
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	for _, b := range bufs {
		if err := e.Send(peer, rawBulk, b); err != nil {
			return err
		}
	}
	_, err := e.Recv(rawPong)
	return err
}

func encodePing(reqID uint32) (msgplane.Tag, []byte) {
	return tagPing, binary.LittleEndian.AppendUint32(nil, reqID)
}

// matchedCalls issues n request/response pairs from rank 0 through the
// message plane: Caller.Start, the peer's Router handler, Deliver, Wait.
func matchedCalls(e *transport.Endpoint, peer, n int) error {
	router := msgplane.NewRouter(e)
	caller := msgplane.NewCaller(e, e.Size(), 0)
	router.Handle(tagPing, func(m transport.Message) error {
		return msgplane.Send(e, m.From, tagPong, m.Data)
	})
	router.Handle(tagPong, func(m transport.Message) error {
		return caller.Deliver(m.From, tagPong, binary.LittleEndian.Uint32(m.Data), nil)
	})
	routed := make(chan error, 1)
	go func() { routed <- router.Run() }()
	var callErr error
	if e.Rank() == 0 {
		for i := 0; i < n && callErr == nil; i++ {
			var c *msgplane.Call
			c, callErr = caller.Start(peer, 1, encodePing)
			if callErr == nil {
				_, callErr = c.Wait()
			}
		}
	}
	// Every rank reports done; the coordinator's stop ends both routers.
	return errors.Join(callErr, router.AnnounceDone(), <-routed)
}

// engineOptions is the workload's engine configuration, as the binaries
// assemble it from their flags.
func (lr *layerRun) engineOptions() core.Options {
	return core.Options{
		Config:      lr.d.spec.config(),
		Heuristics:  core.Heuristics{LookupBatch: lr.w.LookupBatch, Workers: lr.w.Workers},
		LoadBalance: true,
	}
}

// engineRun runs the batch engine in this process over the workload's
// transport, one RunRank per rank, and checks the corrected reads.
func (lr *layerRun) engineRun(name string, opts core.Options) ([]stats.Rank, time.Time, time.Duration, error) {
	src := &core.FileSource{FastaPath: lr.d.fasta, QualPath: lr.d.qual}
	outs := make([]*core.RankOutput, lr.w.Ranks)
	start, elapsed, err := runGroup(lr.w.TCP, lr.w.Ranks, func(e *transport.Endpoint) error {
		var err error
		outs[e.Rank()], err = core.RunRank(e, src, opts)
		return err
	})
	if err != nil {
		return nil, start, 0, fmt.Errorf("%s: %w", name, err)
	}
	ranks := make([]stats.Rank, len(outs))
	var all []reads.Read
	for r, ro := range outs {
		ranks[r] = ro.Stats
		all = append(all, ro.Corrected...)
	}
	lr.countChecks(int64(len(lr.rs)), lr.chk.failedReads(all))
	return ranks, start, elapsed, nil
}

// phases turns the ranks' own phase walls into spans under one root and into
// the core.* metrics. elapsed is the launcher-observed wall of the same run.
func (lr *layerRun) phases(name string, ranks []stats.Rank, start time.Time, elapsed time.Duration) {
	root := lr.tr.add(name, -1, start, elapsed)
	var sum time.Duration
	at := start
	for p := stats.Phase(0); p < stats.NumPhases; p++ {
		var wall time.Duration
		for i := range ranks {
			if ranks[i].Wall[p] > wall {
				wall = ranks[i].Wall[p]
			}
		}
		lr.tr.add("core."+p.String(), root, at, wall)
		at = at.Add(wall)
		sum += wall
		lr.m["core."+p.String()+"_s"] = wall.Seconds()
	}
	lr.m["core.phase_sum_over_wall"] = sum.Seconds() / elapsed.Seconds()

	run := stats.Run{Ranks: ranks}
	sumOf := func(f func(*stats.Rank) int64) float64 { return float64(run.Sum(f)) }
	// Every correction travels a session, one-shot in the batch engine, so
	// SessionReads is the number of reads these counters were spent on.
	n := sumOf(func(r *stats.Rank) int64 { return r.SessionReads })
	lr.m["core.remote_lookups_per_read"] = sumOf((*stats.Rank).TotalRemoteLookups) / n
	lr.m["core.msgs_per_read"] = sumOf(func(r *stats.Rank) int64 { return r.MsgsSent }) / n
	lr.m["core.wire_bytes_per_read"] = sumOf(func(r *stats.Rank) int64 { return r.BytesSent }) / n
	if frames := sumOf(func(r *stats.Rank) int64 { return r.BatchesSent }); frames > 0 {
		lr.m["core.ids_per_frame"] = sumOf(func(r *stats.Rank) int64 { return r.BatchedLookups }) / frames
	}
	if entries := sumOf(func(r *stats.Rank) int64 { return r.SpecEntriesSent }); entries > 0 {
		lr.m["core.spec_wire_bytes_per_entry"] = sumOf(func(r *stats.Rank) int64 { return r.SpecBytesSent }) / entries
	}
	lr.m["core.owned_mem_mb"] = float64(run.Max(func(r *stats.Rank) int64 { return r.OwnedMemBytes })) / (1 << 20)
	lr.m["core.rank_mem_max_mb"] = float64(run.Max(func(r *stats.Rank) int64 { return r.PeakMemBytes })) / (1 << 20)
	// A lookup frame costs its issuer one matched call through the message
	// plane, with up to a window of them in flight per peer; a byte costs
	// 1/bandwidth. Whichever term is near the measured walls names the
	// regime.
	lookupFrames := run.Max(func(r *stats.Rank) int64 {
		if r.BatchesSent > 0 {
			return r.BatchesSent
		}
		return r.TotalRemoteLookups()
	})
	lr.m["core.latency_term_s"] = float64(lookupFrames) * lr.m["msgplane.call_rtt_us"] / 1e6 / msgplane.DefaultWindow
	lr.m["core.bandwidth_term_s"] = float64(run.Max(func(r *stats.Rank) int64 { return r.BytesSent })) / 1e6 / lr.m["transport.mb_per_s"]
}

// batch runs the workload's batch job inside this process.
func (lr *layerRun) batch() error {
	opts := lr.engineOptions()
	if lr.w.Cached {
		cache := filepath.Join(lr.dir, "cache")
		if err := os.MkdirAll(cache, 0o755); err != nil {
			return err
		}
		digest, err := snapshot.DigestFiles(lr.d.fasta, lr.d.qual)
		if err != nil {
			return err
		}
		opts.Snapshot = &core.SnapshotOptions{Dir: cache, InputDigest: digest}
		if _, _, _, err := lr.engineRun("core.run_cold", opts); err != nil {
			return err
		}
	}
	ranks, start, elapsed, err := lr.engineRun("core.run", opts)
	if err != nil {
		return err
	}
	lr.phases("core.run", ranks, start, elapsed)
	return nil
}

// remoteWait reruns the correction with both spectra replicated on every
// rank: what the correct phase then no longer costs was spent on remote
// lookups.
func (lr *layerRun) remoteWait() error {
	correctWall := func(ranks []stats.Rank) time.Duration {
		run := stats.Run{Ranks: ranks}
		return time.Duration(run.Max(func(r *stats.Rank) int64 { return int64(r.Wall[stats.PhaseCorrect]) }))
	}
	opts := lr.engineOptions()
	distributed := time.Duration(lr.m["core.correct_s"] * float64(time.Second))
	if lr.w.Served {
		// A resident service's correct phase is its whole lifetime; compare
		// two batch passes over the same reads and configuration instead.
		ranks, _, _, err := lr.engineRun("core.run_distributed", opts)
		if err != nil {
			return err
		}
		distributed = correctWall(ranks)
	}
	opts.Heuristics.ReplicateKmers, opts.Heuristics.ReplicateTiles = true, true
	ranks, _, _, err := lr.engineRun("core.run_replicated", opts)
	if err != nil {
		return err
	}
	lr.m["core.remote_wait_frac"] = 1 - correctWall(ranks).Seconds()/distributed.Seconds()
	return nil
}

// service keeps the workload's spectrum service resident inside this
// process and drives it twice with the workload's client count: through
// sessions directly, then through the TCP front door.
func (lr *layerRun) service() error {
	w := lr.w
	opts := lr.engineOptions()
	src := &core.FileSource{FastaPath: lr.d.fasta, QualPath: lr.d.qual}
	eps, err := transport.NewProcGroup(w.Ranks)
	if err != nil {
		return err
	}
	start := time.Now()
	svcs := make([]*core.SpectrumService, w.Ranks)
	errs := make([]error, w.Ranks)
	var wg sync.WaitGroup
	for r := range svcs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			svcs[r], errs[r] = core.StartService(eps[r], src, opts)
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return errors.Join(fmt.Errorf("starting the service: %w", err), transport.CloseGroup(eps))
	}
	outs := make([]*core.RankOutput, w.Ranks)
	for r := 1; r < w.Ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			outs[r], errs[r] = svcs[r].ServeExecutor()
		}(r)
	}
	svc := svcs[0]

	const chunksPerClient = 200
	drive := func(name string, open func(c int) (correctFn, func() error, error)) ([]time.Duration, error) {
		lats := make([][]time.Duration, w.Clients)
		cerrs := make([]error, w.Clients)
		var cwg sync.WaitGroup
		id := lr.tr.begin(name, -1)
		for c := 0; c < w.Clients; c++ {
			cwg.Add(1)
			go func(c int) {
				defer cwg.Done()
				lats[c], cerrs[c] = lr.driveSession(c, chunksPerClient, open)
			}(c)
		}
		cwg.Wait()
		lr.tr.end(id)
		var all []time.Duration
		for _, l := range lats {
			all = append(all, l...)
		}
		return all, errors.Join(cerrs...)
	}
	session, err := drive("core.sessions", func(c int) (correctFn, func() error, error) {
		s, err := svc.Open(fmt.Sprintf("trace-%d", c))
		if err != nil {
			return nil, nil, err
		}
		return s.Correct, s.Close, nil
	})
	var door []time.Duration
	if err == nil {
		var srv *serve.Server
		if srv, err = serve.Listen("127.0.0.1:0", svc); err == nil {
			door, err = drive("serve.door", func(c int) (correctFn, func() error, error) {
				cl, err := serve.Dial(srv.Addr())
				if err != nil {
					return nil, nil, err
				}
				if err := cl.Open(fmt.Sprintf("door-%d", c)); err != nil {
					return nil, nil, errors.Join(err, cl.Close())
				}
				return cl.Correct, func() error { return errors.Join(cl.CloseSession(), cl.Close()) }, nil
			})
			srv.Shutdown()
		}
	}
	rejected := svc.Stats().Rejected
	var derr error
	outs[0], derr = svc.Drain()
	wg.Wait()
	elapsed := time.Since(start)
	if err := errors.Join(err, derr, errors.Join(errs...), transport.CloseGroup(eps)); err != nil {
		return fmt.Errorf("resident service: %w", err)
	}
	ranks := make([]stats.Rank, len(outs))
	for r, ro := range outs {
		ranks[r] = ro.Stats
		rejected += ro.Stats.SessionsRejected
	}
	lr.phases("core.service", ranks, start, elapsed)
	lr.m["core.session_chunk_us"] = float64(stats.Percentile(session, 50).Nanoseconds()) / 1e3
	lr.m["serve.door_overhead_us"] = float64((stats.Percentile(door, 50) - stats.Percentile(session, 50)).Nanoseconds()) / 1e3
	lr.m["serve.chunk_p99_ms"] = float64(stats.Percentile(door, 99).Nanoseconds()) / 1e6
	lr.m["serve.rejected"] = float64(rejected)
	return nil
}

type correctFn func([]reads.Read) ([]reads.Read, reptile.Result, error)

// driveSession sends client c's first n chunks through one session, closed
// loop, and checks every answer.
func (lr *layerRun) driveSession(c, n int, open func(c int) (correctFn, func() error, error)) ([]time.Duration, error) {
	correct, done, err := open(c)
	if err != nil {
		return nil, err
	}
	w := lr.w
	chunks := (len(lr.rs) + w.ChunkReads - 1) / w.ChunkReads
	var lats []time.Duration
	var failed int64
	for i := c; i < chunks && len(lats) < n; i += w.Clients {
		in := lr.rs[i*w.ChunkReads : min((i+1)*w.ChunkReads, len(lr.rs))]
		t := time.Now()
		out, _, err := correct(in)
		lats = append(lats, time.Since(t))
		if err != nil {
			return nil, errors.Join(err, done())
		}
		bad := len(out) != len(in)
		for j := range out {
			if !bad && !lr.chk.ok(&out[j]) {
				bad = true
			}
		}
		if bad {
			failed++
		}
	}
	lr.countChecks(int64(len(lats)), failed)
	return lats, done()
}

func (lr *layerRun) countChecks(n, failed int64) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.checks += n
	lr.failed += failed
}
