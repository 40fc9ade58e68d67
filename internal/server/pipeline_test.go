package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"miodb/internal/core"
	"miodb/internal/kvstore"
)

type miodbStore struct{ *core.DB }

func (s miodbStore) Flush() error { return s.DB.FlushAll() }

// startPipelinedServer brings up a server over a fresh MioDB store and
// returns it with its address.
func startPipelinedServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	db, err := core.Open(core.Options{MemTableSize: 32 << 10, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(miodbStore{db}, opts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return srv, addr.String()
}

// rawV2Conn is a test harness speaking protocol v2 by hand.
type rawV2Conn struct {
	nc net.Conn
	br *bufio.Reader
}

func dialV2(t *testing.T, addr string) *rawV2Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(MagicV2[:]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawV2Conn{nc: nc, br: bufio.NewReader(nc)}
}

func (c *rawV2Conn) send(t *testing.T, tag uint64, op byte, key, val []byte) {
	t.Helper()
	if _, err := c.nc.Write(AppendTaggedRequest(nil, tag, op, key, val)); err != nil {
		t.Fatal(err)
	}
}

func (c *rawV2Conn) recv(t *testing.T) (uint64, byte, []byte) {
	t.Helper()
	tag, status, payload, err := ReadTaggedResponse(c.br)
	if err != nil {
		t.Fatal(err)
	}
	return tag, status, payload
}

// TestTaggedInterleavedResponses sends a burst of tagged puts and gets
// in one shot and verifies every tag is answered exactly once with the
// payload belonging to that tag, regardless of the order responses come
// back in.
func TestTaggedInterleavedResponses(t *testing.T) {
	_, addr := startPipelinedServer(t, Options{Window: 64})
	c := dialV2(t, addr)

	const n = 32
	// Phase 1: n tagged puts, distinct keys/values, written back to back.
	var burst []byte
	for i := 0; i < n; i++ {
		burst = AppendTaggedRequest(burst, uint64(100+i), OpPut,
			[]byte(fmt.Sprintf("key-%02d", i)), []byte(fmt.Sprintf("val-%02d", i)))
	}
	if _, err := c.nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		tag, status, payload := c.recv(t)
		if tag < 100 || tag >= 100+n {
			t.Fatalf("unknown tag %d", tag)
		}
		if seen[tag] {
			t.Fatalf("tag %d answered twice", tag)
		}
		seen[tag] = true
		if status != StatusOK {
			t.Fatalf("put tag %d: status %d (%s)", tag, status, payload)
		}
	}

	// Phase 2: n tagged gets in one burst; each response's payload must
	// match the key its tag asked for, however the responses interleave.
	burst = burst[:0]
	for i := 0; i < n; i++ {
		burst = AppendTaggedRequest(burst, uint64(500+i), OpGet,
			[]byte(fmt.Sprintf("key-%02d", i)), nil)
	}
	if _, err := c.nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tag, status, payload := c.recv(t)
		idx := int(tag - 500)
		if idx < 0 || idx >= n {
			t.Fatalf("unknown tag %d", tag)
		}
		if status != StatusOK {
			t.Fatalf("get tag %d: status %d", tag, status)
		}
		want := fmt.Sprintf("val-%02d", idx)
		if string(payload) != want {
			t.Fatalf("tag %d: payload %q, want %q (responses mismatched)", tag, payload, want)
		}
	}
}

// TestTaggedMixedOps exercises delete, scan, mput, and stats through the
// tagged framing on one connection.
func TestTaggedMixedOps(t *testing.T) {
	_, addr := startPipelinedServer(t, Options{})
	c := dialV2(t, addr)

	ops := []kvstore.BatchOp{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
		{Key: []byte("c"), Value: []byte("3")},
	}
	c.send(t, 1, OpMPut, nil, EncodeBatchPayload(ops))
	if tag, status, payload := c.recv(t); tag != 1 || status != StatusOK {
		t.Fatalf("mput: tag=%d status=%d %s", tag, status, payload)
	}
	c.send(t, 2, OpDelete, []byte("b"), nil)
	if tag, status, _ := c.recv(t); tag != 2 || status != StatusOK {
		t.Fatalf("delete: tag=%d status=%d", tag, status)
	}
	c.send(t, 3, OpGet, []byte("b"), nil)
	if tag, status, _ := c.recv(t); tag != 3 || status != StatusNotFound {
		t.Fatalf("get deleted: tag=%d status=%d", tag, status)
	}
	var lim [4]byte
	lim[0] = 10
	c.send(t, 4, OpScan, []byte("a"), lim[:])
	tag, status, payload := c.recv(t)
	if tag != 4 || status != StatusOK {
		t.Fatalf("scan: tag=%d status=%d", tag, status)
	}
	pairs, err := DecodeScanPayload(payload)
	if err != nil || len(pairs) != 2 {
		t.Fatalf("scan pairs = %d, %v", len(pairs), err)
	}
	c.send(t, 5, OpStats, nil, nil)
	tag, status, payload = c.recv(t)
	if tag != 5 || status != StatusOK {
		t.Fatalf("stats: tag=%d status=%d", tag, status)
	}
	if !bytes.Contains(payload, []byte("puts=")) {
		t.Fatalf("stats payload: %q", payload)
	}
	// The server's per-op service histograms cover the ops just issued.
	for _, want := range []string{"lat_mput_p50_us=", "lat_delete_p99_us=", "lat_get_p999_us="} {
		if !strings.Contains(string(payload), want) {
			t.Errorf("stats payload missing %s: %q", want, payload)
		}
	}
	// Malformed: empty key put is rejected per-request, connection lives.
	c.send(t, 6, OpPut, nil, []byte("v"))
	if tag, status, _ := c.recv(t); tag != 6 || status != StatusError {
		t.Fatalf("empty-key put: tag=%d status=%d", tag, status)
	}
	c.send(t, 7, OpGet, []byte("a"), nil)
	if tag, status, payload := c.recv(t); tag != 7 || status != StatusOK || string(payload) != "1" {
		t.Fatalf("conn dead after per-request error: tag=%d status=%d %q", tag, status, payload)
	}
}

// TestBackpressureSlowConsumer verifies the backpressure contract: a
// client that stops reading responses fills its window and stops being
// served, while other connections keep full service.
func TestBackpressureSlowConsumer(t *testing.T) {
	const window = 8
	_, addr := startPipelinedServer(t, Options{Window: window})

	// The slow consumer: sends far more requests than the window, never
	// reads a response.
	slow := dialV2(t, addr)
	var burst []byte
	for i := 0; i < window*20; i++ {
		burst = AppendTaggedRequest(burst, uint64(i), OpPut,
			[]byte(fmt.Sprintf("slow-%04d", i)), bytes.Repeat([]byte("x"), 1024))
	}
	// The burst may not even fully enter the socket once the server
	// stops reading; write what fits without blocking the test.
	slow.nc.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
	slow.nc.Write(burst)

	// A healthy connection must see normal service while the slow one
	// is wedged.
	healthy := dialV2(t, addr)
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 200; i++ {
		if time.Now().After(deadline) {
			t.Fatal("healthy connection starved by slow consumer")
		}
		tag := uint64(1000 + i)
		healthy.send(t, tag, OpPut, []byte(fmt.Sprintf("ok-%04d", i)), []byte("v"))
		gotTag, status, payload := healthy.recv(t)
		if gotTag != tag || status != StatusOK {
			t.Fatalf("healthy op %d: tag=%d status=%d %s", i, gotTag, status, payload)
		}
	}
}

// slowStore delays every commit so Close always races with in-flight
// writes deterministically.
type slowStore struct {
	kvstore.Store
	delay time.Duration
}

func (s slowStore) WriteBatch(ops []kvstore.BatchOp) error {
	time.Sleep(s.delay)
	if bw, ok := s.Store.(kvstore.BatchWriter); ok {
		return bw.WriteBatch(ops)
	}
	for _, op := range ops {
		if op.Delete {
			if err := s.Store.Delete(op.Key); err != nil {
				return err
			}
		} else if err := s.Store.Put(op.Key, op.Value); err != nil {
			return err
		}
	}
	return nil
}

// TestGracefulCloseDrainsInFlight issues requests whose commits are
// artificially slow, closes the server while they are in flight, and
// checks every already-admitted request still gets its tagged response
// before the connection dies.
func TestGracefulCloseDrainsInFlight(t *testing.T) {
	db, err := core.Open(core.Options{MemTableSize: 32 << 10, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := NewWithOptions(slowStore{Store: miodbStore{db}, delay: 50 * time.Millisecond},
		Options{Window: 16, DrainTimeout: 5 * time.Second})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := dialV2(t, addr.String())
	const n = 8
	var burst []byte
	for i := 0; i < n; i++ {
		burst = AppendTaggedRequest(burst, uint64(i), OpPut,
			[]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	if _, err := c.nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	// Give the reader a moment to admit the burst, then close while the
	// slow commits are still running.
	time.Sleep(20 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	// Every admitted request must complete with a real response.
	got := 0
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for got < n {
		_, status, payload, err := ReadTaggedResponse(c.br)
		if err != nil {
			t.Fatalf("after %d/%d responses: %v", got, n, err)
		}
		if status != StatusOK {
			t.Fatalf("response %d: status=%d %s", got, status, payload)
		}
		got++
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	// All acknowledged writes are in the store.
	for i := 0; i < n; i++ {
		if v, err := db.Get([]byte(fmt.Sprintf("k%d", i))); err != nil || string(v) != "v" {
			t.Fatalf("acked k%d lost: %q %v", i, v, err)
		}
	}
	// And the listener is gone.
	if _, err := net.DialTimeout("tcp", addr.String(), time.Second); err == nil {
		t.Error("listener still accepting after Close")
	}
}

// TestCrossConnectionCoalescing drives concurrent single-Put traffic
// from many pipelined connections and checks the shared batcher merged
// them: the store's group-commit accounting must show multi-record
// commits even though every client request carried exactly one record.
func TestCrossConnectionCoalescing(t *testing.T) {
	db, err := core.Open(core.Options{MemTableSize: 256 << 10, Levels: 3, Simulate: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := New(miodbStore{db})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const conns = 8
	const depth = 8
	const perWorker = 40
	var wg sync.WaitGroup
	errCh := make(chan error, conns*depth)
	for g := 0; g < conns; g++ {
		c := dialV2(t, addr.String())
		var tags sync.Mutex
		next := uint64(0)
		// depth workers share the connection; a private reader fan-in
		// distributes responses (tags are per-connection here).
		respCh := make(chan tresp, depth*perWorker)
		go func() {
			for {
				_, status, payload, err := ReadTaggedResponse(c.br)
				if err != nil {
					return
				}
				respCh <- tresp{status: status, payload: payload}
			}
		}()
		for w := 0; w < depth; w++ {
			wg.Add(1)
			go func(g, w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					tags.Lock()
					next++
					tag := next
					frame := AppendTaggedRequest(nil, tag, OpPut,
						[]byte(fmt.Sprintf("c%dw%d-%04d", g, w, i)), []byte("v"))
					_, err := c.nc.Write(frame)
					tags.Unlock()
					if err != nil {
						errCh <- err
						return
					}
					r := <-respCh
					if r.status != StatusOK {
						errCh <- fmt.Errorf("status %d: %s", r.status, r.payload)
						return
					}
				}
			}(g, w)
		}
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	st := db.Stats()
	if st.WriteGroups == 0 {
		t.Fatal("no write groups recorded")
	}
	mean := float64(st.GroupedWrites) / float64(st.WriteGroups)
	t.Logf("server-fed group commit: %d records in %d groups (mean %.2f)",
		st.GroupedWrites, st.WriteGroups, mean)
	if mean < 1.5 {
		t.Errorf("mean group size %.2f: cross-connection batcher produced no coalescing", mean)
	}
}

// TestBadMagicRejected checks a connection that does not open with the
// "MIO2" magic — a corrupt magic, or a request framed without one — is
// dropped without wedging the server.
func TestBadMagicRejected(t *testing.T) {
	_, addr := startPipelinedServer(t, Options{})
	for _, preamble := range [][]byte{
		{'M', 'I', 'O', 'X'},
		{OpGet, 1, 0, 0, 0, 'k', 0, 0, 0, 0},
	} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		nc.Write(preamble)
		buf := make([]byte, 1)
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := nc.Read(buf); err == nil {
			t.Errorf("server answered a connection opening with %q", preamble)
		}
		nc.Close()
	}
	// The server still serves new connections.
	c := dialV2(t, addr)
	c.send(t, 1, OpPut, []byte("k"), []byte("v"))
	if tag, status, payload := c.recv(t); tag != 1 || status != StatusOK {
		t.Fatalf("put after bad preambles: tag=%d status=%d %q", tag, status, payload)
	}
}
