package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"miodb/internal/kvstore"
	"miodb/internal/stats"
)

// Options tunes the pipelined front end. The zero value takes defaults.
type Options struct {
	// Window caps in-flight requests per pipelined connection. A
	// connection whose client stops consuming responses fills its
	// window and stops being read — backpressure lands on the slow
	// consumer, never on the server or its neighbors. Default 128.
	Window int
	// MaxPending caps requests being processed at once across all
	// connections (the global admission limit in front of the store).
	// Default 4096.
	MaxPending int
	// MaxBatchOps caps how many operations the cross-connection
	// batcher merges into one store commit. Default 4096.
	MaxBatchOps int
	// DrainTimeout bounds how long Close waits for in-flight requests
	// to complete before force-closing connections. Default 5s.
	DrainTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 128
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 4096
	}
	if o.MaxBatchOps <= 0 {
		o.MaxBatchOps = 4096
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	return o
}

// Server serves a kvstore.Store over TCP with protocol v2. Each
// connection is split into a reader goroutine (decodes and dispatches)
// and a writer goroutine (serializes tagged responses), so handling never
// blocks the socket.
// Writes from every connection funnel through one shared batcher that
// feeds the store's group-commit pipeline (see batcher.go).
type Server struct {
	store kvstore.Store
	opts  Options
	ln    net.Listener
	batch *batcher

	// pendingSem holds one token per request currently being processed
	// (global admission control); inflight tracks the same population
	// for Close's drain phase.
	pendingSem chan struct{}
	inflight   sync.WaitGroup

	mu     sync.Mutex
	conns  map[*conn]struct{}
	closed bool
	wg     sync.WaitGroup // accept loop + per-connection reader/writer goroutines
}

// New wraps a store with default options.
func New(store kvstore.Store) *Server { return NewWithOptions(store, Options{}) }

// NewWithOptions wraps a store with explicit front-end tuning.
func NewWithOptions(store kvstore.Store, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		store:      store,
		opts:       opts,
		conns:      map[*conn]struct{}{},
		pendingSem: make(chan struct{}, opts.MaxPending),
	}
	s.batch = newBatcher(store, opts.MaxPending, opts.MaxBatchOps)
	return s
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting in the
// background. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &conn{
			srv:    s,
			nc:     nc,
			br:     bufio.NewReaderSize(nc, 64<<10),
			closed: make(chan struct{}),
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(c)
	}
}

// conn is one client connection.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader

	writeCh chan tresp    // responses awaiting serialization (cap Window)
	window  chan struct{} // in-flight slots (cap Window)
	ops     sync.WaitGroup

	// Snapshots captured on this connection (OpSnap), keyed by the id
	// returned to the client. Connection-owned state: released by
	// OpSnapRel or en masse on disconnect, after in-flight requests
	// drain, so a dropped client can never leak a snapshot (which would
	// block store reclamation — and Close — forever).
	snapMu  sync.Mutex
	snaps   map[uint64]kvstore.SnapshotView
	snapSeq uint64

	closed    chan struct{}
	closeOnce sync.Once
}

// registerSnapshot stores a captured view and returns its id (never 0 —
// 0 means "the live store" in MGET requests).
func (c *conn) registerSnapshot(sv kvstore.SnapshotView) uint64 {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	if c.snaps == nil {
		c.snaps = make(map[uint64]kvstore.SnapshotView)
	}
	c.snapSeq++
	c.snaps[c.snapSeq] = sv
	return c.snapSeq
}

// lookupSnapshot resolves an id to its view (nil if unknown/released).
func (c *conn) lookupSnapshot(id uint64) kvstore.SnapshotView {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	return c.snaps[id]
}

// takeSnapshot removes an id from the registry, returning the view so
// the caller can Close it outside the lock.
func (c *conn) takeSnapshot(id uint64) kvstore.SnapshotView {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	sv := c.snaps[id]
	delete(c.snaps, id)
	return sv
}

// releaseSnapshots closes every snapshot still registered. Called once
// all in-flight requests for the connection have drained.
func (c *conn) releaseSnapshots() {
	c.snapMu.Lock()
	snaps := c.snaps
	c.snaps = nil
	c.snapMu.Unlock()
	for _, sv := range snaps {
		sv.Close()
	}
}

// tresp is one tagged response queued for the write loop.
type tresp struct {
	tag     uint64
	status  byte
	payload []byte
}

// shutdown force-closes the connection (idempotent). Blocked reads and
// writes error out; goroutines selecting on c.closed exit.
func (c *conn) shutdown() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.nc.Close()
	})
}

// enqueue hands a response to the write loop. Capacity Window and the
// one-response-per-in-flight-request invariant make the send
// non-blocking on a live connection; on a dead one the response drops.
func (c *conn) enqueue(r tresp) {
	select {
	case c.writeCh <- r:
	case <-c.closed:
	}
}

// serve checks the "MIO2" magic every client sends right after connect
// and closes a connection that opens with anything else.
func (s *Server) serve(c *conn) {
	defer s.wg.Done()
	var magic [4]byte
	if _, err := io.ReadFull(c.br, magic[:]); err != nil || magic != MagicV2 {
		c.shutdown()
		s.forget(c)
		return
	}
	s.servePipelined(c)
}

func (s *Server) forget(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// servePipelined is the v2 read loop: decode, admit (per-connection
// window, then global pending limit), dispatch. It never writes to the
// socket; the write loop owns that side.
func (s *Server) servePipelined(c *conn) {
	c.writeCh = make(chan tresp, s.opts.Window)
	c.window = make(chan struct{}, s.opts.Window)
	s.wg.Add(1)
	go c.writeLoop()

	for {
		req, err := readTaggedRequest(c.br)
		if err != nil {
			break // disconnect, malformed stream, or drain deadline
		}
		select {
		case c.window <- struct{}{}:
		case <-c.closed:
			goto out
		}
		select {
		case s.pendingSem <- struct{}{}:
		case <-c.closed:
			goto out
		}
		s.inflight.Add(1)
		c.ops.Add(1)
		s.dispatch(c, req)
	}
out:
	// Let every dispatched request finish and enqueue its response,
	// release the connection's snapshots (nothing can reach them
	// anymore), then close the queue so the write loop flushes the tail
	// and tears the socket down.
	go func() {
		c.ops.Wait()
		c.releaseSnapshots()
		close(c.writeCh)
	}()
	s.forget(c)
}

// writeLoop is the single writer for a pipelined connection: it drains
// queued responses, coalescing everything ready into one socket write,
// and releases window slots once responses are on the wire.
func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	buf := make([]byte, 0, 16<<10)
	for {
		var r tresp
		var ok bool
		select {
		case r, ok = <-c.writeCh:
			if !ok {
				c.shutdown()
				return
			}
		case <-c.closed:
			return
		}
		buf = appendTaggedResponse(buf[:0], r.tag, r.status, r.payload)
		n := 1
	coalesce:
		for len(buf) < 256<<10 {
			select {
			case r2, ok2 := <-c.writeCh:
				if !ok2 {
					break coalesce
				}
				buf = appendTaggedResponse(buf, r2.tag, r2.status, r2.payload)
				n++
			default:
				break coalesce
			}
		}
		if _, err := c.nc.Write(buf); err != nil {
			c.shutdown()
			return
		}
		for i := 0; i < n; i++ {
			<-c.window
		}
	}
}

// dispatch routes one admitted request. Writes go to the shared batcher
// (the reader blocks only on admission, never on the commit); reads run
// in their own goroutine so a device-bound Get cannot stall decoding.
// done fires exactly once per request and releases everything the
// request holds.
func (s *Server) dispatch(c *conn, req taggedRequest) {
	op := req.op
	done := func(status byte, payload []byte) {
		c.enqueue(tresp{tag: req.tag, status: status, payload: payload})
		<-s.pendingSem
		s.inflight.Done()
		c.ops.Done()
	}
	switch op {
	case OpPut:
		if len(req.key) == 0 {
			done(StatusError, []byte("put: empty key"))
			return
		}
		s.batch.submit(submission{
			ops:     []kvstore.BatchOp{{Key: req.key, Value: req.val}},
			respond: done,
		})
	case OpDelete:
		if len(req.key) == 0 {
			done(StatusError, []byte("delete: empty key"))
			return
		}
		s.batch.submit(submission{
			ops:     []kvstore.BatchOp{{Key: req.key, Delete: true}},
			respond: done,
		})
	case OpMPut:
		ops, err := DecodeBatchPayload(req.val)
		if err != nil {
			done(StatusError, []byte(err.Error()))
			return
		}
		if msg := s.validateBatch(ops); msg != "" {
			done(StatusError, []byte(msg))
			return
		}
		if len(ops) == 0 {
			done(StatusOK, nil)
			return
		}
		s.batch.submit(submission{ops: ops, respond: done})
	case OpDelRange:
		ops, msg := s.delRangeOps(req.request)
		if msg != "" {
			done(StatusError, []byte(msg))
			return
		}
		if len(ops) == 0 {
			done(StatusOK, nil) // empty range — a no-op, like the store's
			return
		}
		s.batch.submit(submission{ops: ops, respond: done})
	default:
		go func() {
			status, payload := s.handleRead(c, req.request)
			done(status, payload)
		}()
	}
}

// validateBatch screens a decoded MPUT batch: empty keys are refused
// (range deletes excepted — an empty start means "from the first key"),
// and range deletes require a store that can honor them.
func (s *Server) validateBatch(ops []kvstore.BatchOp) string {
	for _, o := range ops {
		if o.RangeDelete {
			if _, ok := s.store.(kvstore.RangeDeleter); !ok {
				return "mput: store does not support range deletes"
			}
			continue
		}
		if len(o.Key) == 0 {
			return "mput: empty key"
		}
	}
	return ""
}

// delRangeOps turns a DELRANGE request into its batch form after the
// capability check. An empty range returns no ops (a no-op, matching the
// store's own DeleteRange contract).
func (s *Server) delRangeOps(req request) ([]kvstore.BatchOp, string) {
	if _, ok := s.store.(kvstore.RangeDeleter); !ok {
		return nil, "delrange: store does not support range deletes"
	}
	if len(req.val) > 0 && string(req.key) >= string(req.val) {
		return nil, ""
	}
	return []kvstore.BatchOp{{Key: req.key, Value: req.val, RangeDelete: true}}, ""
}

// handleRead serves the non-mutating ops (and rejects unknown ones).
// The conn carries the connection's snapshot registry for the SNAP
// family.
func (s *Server) handleRead(c *conn, req request) (byte, []byte) {
	switch req.op {
	case OpGet:
		v, err := s.store.Get(req.key)
		switch {
		case err == nil:
			return StatusOK, v
		case errors.Is(err, kvstore.ErrNotFound):
			return StatusNotFound, nil
		default:
			return StatusError, []byte(err.Error())
		}
	case OpSnap:
		sn, ok := s.store.(kvstore.Snapshotter)
		if !ok {
			return StatusError, []byte("snap: store does not support snapshots")
		}
		sv, err := sn.SnapshotView()
		if err != nil {
			return StatusError, []byte(err.Error())
		}
		var id [8]byte
		binary.LittleEndian.PutUint64(id[:], c.registerSnapshot(sv))
		return StatusOK, id[:]
	case OpSnapGet:
		if len(req.val) != 8 {
			return StatusError, []byte("snapget: missing snapshot id")
		}
		sv := c.lookupSnapshot(binary.LittleEndian.Uint64(req.val))
		if sv == nil {
			return StatusError, []byte("snapget: unknown snapshot id")
		}
		v, err := sv.Get(req.key)
		switch {
		case err == nil:
			return StatusOK, v
		case errors.Is(err, kvstore.ErrNotFound):
			return StatusNotFound, nil
		default:
			return StatusError, []byte(err.Error())
		}
	case OpSnapRel:
		if len(req.val) != 8 {
			return StatusError, []byte("snaprel: missing snapshot id")
		}
		sv := c.takeSnapshot(binary.LittleEndian.Uint64(req.val))
		if sv == nil {
			return StatusError, []byte("snaprel: unknown snapshot id")
		}
		if err := sv.Close(); err != nil {
			return StatusError, []byte(err.Error())
		}
		return StatusOK, nil
	case OpMGet:
		snapID, mkeys, err := DecodeMGetRequest(req.val)
		if err != nil {
			return StatusError, []byte(err.Error())
		}
		var values [][]byte
		var errs []error
		if snapID == 0 {
			mg, ok := s.store.(kvstore.MultiGetter)
			if !ok {
				return StatusError, []byte("mget: store does not support multi-get")
			}
			values, errs = mg.GetMulti(mkeys)
		} else {
			sv := c.lookupSnapshot(snapID)
			if sv == nil {
				return StatusError, []byte("mget: unknown snapshot id")
			}
			values, errs = sv.GetMulti(mkeys)
		}
		for _, err := range errs {
			if err != nil && !errors.Is(err, kvstore.ErrNotFound) {
				return StatusError, []byte(err.Error())
			}
		}
		return StatusOK, EncodeMGetResponse(values, errs)
	case OpScan:
		if len(req.val) != 4 {
			return StatusError, []byte("scan: missing limit")
		}
		limit := int(binary.LittleEndian.Uint32(req.val))
		var pairs [][2][]byte
		err := s.store.Scan(req.key, limit, func(k, v []byte) bool {
			pairs = append(pairs, [2][]byte{
				append([]byte(nil), k...),
				append([]byte(nil), v...),
			})
			return true
		})
		if err != nil {
			return StatusError, []byte(err.Error())
		}
		return StatusOK, EncodeScanPayload(pairs)
	case OpStats:
		return StatusOK, []byte(s.statsLine())
	default:
		return StatusError, []byte("unknown op")
	}
}

// statsLine renders the store's cost accounting plus the store's per-op
// latency percentiles, so a plain client sees the same numbers the
// netscale benchmark and miodb-bench report. The server used to keep
// its own service-time histograms here; they double-counted what the
// core already measures and are replaced by the core distributions.
func (s *Server) statsLine() string {
	st := s.store.Stats()
	payload := fmt.Sprintf("puts=%d gets=%d deletes=%d scans=%d wa=%.3f interval_stall_ns=%d cumulative_stall_ns=%d"+
		" bloom_probes=%d bloom_skips=%d bloom_fps=%d bloom_fp_rate=%.4f"+
		" live_versions=%d pending_releases=%d read_epoch=%d versions_swept=%d",
		st.Puts, st.Gets, st.Deletes, st.Scans, st.WriteAmplification,
		int64(st.IntervalStall), int64(st.CumulativeStall),
		st.BloomProbes, st.BloomSkips, st.BloomFalsePositives, st.BloomFalsePositiveRate,
		st.LiveVersions, st.PendingReleases, st.ReadEpoch, st.VersionsSwept)
	if st.WriteGroups > 0 {
		payload += fmt.Sprintf(" write_groups=%d grouped_writes=%d mean_group_size=%.2f",
			st.WriteGroups, st.GroupedWrites, st.MeanGroupSize)
	}
	// A sharded store reports its partition count and per-shard op
	// tallies so a client can see the routing balance.
	if len(st.Shards) > 0 {
		payload += fmt.Sprintf(" shards=%d", len(st.Shards))
		for i, sh := range st.Shards {
			payload += fmt.Sprintf(" shard%d_ops=%d", i, sh.Puts+sh.Gets+sh.Deletes+sh.Scans)
		}
	}
	// Per-op latency from the core histograms. The protocol's mput maps
	// to the store's commit distribution (one sample per applied batch);
	// put/delete report per-record commit latency.
	for _, m := range []struct {
		name string
		op   stats.Op
	}{
		{"get", stats.OpGet},
		{"put", stats.OpPut},
		{"delete", stats.OpDelete},
		{"scan", stats.OpScan},
		{"mput", stats.OpCommit},
	} {
		snap := st.OpLatencies[m.op]
		if snap.Count == 0 {
			continue
		}
		payload += fmt.Sprintf(" lat_%s_count=%d lat_%s_p50_us=%.1f lat_%s_p99_us=%.1f lat_%s_p999_us=%.1f",
			m.name, snap.Count,
			m.name, snap.P50.Seconds()*1e6,
			m.name, snap.P99.Seconds()*1e6,
			m.name, snap.P999.Seconds()*1e6)
	}
	// Backlog gauges: the elastic-buffer debt behind the write path.
	if st.PendingImms > 0 || st.L0Tables > 0 {
		payload += fmt.Sprintf(" pending_imms=%d pending_imm_bytes=%d l0_tables=%d l0_bytes=%d",
			st.PendingImms, st.PendingImmBytes, st.L0Tables, st.L0Bytes)
	}
	return payload
}

// applyBatch hands a merged batch to the store. Stores with a batch
// write path (MioDB's group-commit pipeline) get the whole batch in one
// commit — one WAL append, consecutive sequence numbers; others fall
// back to per-operation writes, which keeps every kvstore.Store
// servable.
func applyBatch(store kvstore.Store, ops []kvstore.BatchOp) error {
	if bw, ok := store.(kvstore.BatchWriter); ok {
		return bw.WriteBatch(ops)
	}
	for _, op := range ops {
		var err error
		switch {
		case op.RangeDelete:
			// Decode-time validation guarantees the store implements
			// RangeDeleter before a range op reaches a batch.
			rd, ok := store.(kvstore.RangeDeleter)
			if !ok {
				return fmt.Errorf("server: store does not support range deletes")
			}
			err = rd.DeleteRange(op.Key, op.Value)
		case op.Delete:
			err = store.Delete(op.Key)
		default:
			err = store.Put(op.Key, op.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Close drains gracefully: stop accepting, stop reading new requests,
// let in-flight requests complete (bounded by DrainTimeout), flush
// their responses, then tear connections down. The underlying store is
// not closed (the caller owns it).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if s.ln != nil {
		s.ln.Close()
	}
	// Phase 1: wake every blocked read so the readers stop admitting
	// new requests. Requests already admitted keep running.
	for _, c := range conns {
		c.nc.SetReadDeadline(time.Now())
	}
	// Phase 2: bounded wait for in-flight requests to finish.
	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	timeout := time.NewTimer(s.opts.DrainTimeout)
	defer timeout.Stop()
	select {
	case <-drained:
	case <-timeout.C:
	}
	// Phase 3: wait for the write loops to flush the drained responses
	// and exit; force-close stragglers after a second bounded wait.
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	force := time.NewTimer(s.opts.DrainTimeout)
	defer force.Stop()
	select {
	case <-finished:
	case <-force.C:
		for _, c := range conns {
			c.shutdown()
		}
		<-finished
	}
	// No connection goroutine is left, so nothing can submit: stop the
	// batcher after it finishes the queued tail.
	s.batch.stop()
	return nil
}
