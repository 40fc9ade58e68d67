package server_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"miodb/internal/client"
	"miodb/internal/core"
	"miodb/internal/kvstore"
	"miodb/internal/server"
	"miodb/internal/shard"
)

// startServer serves a fresh single-engine store and returns the server,
// its address, and a connected client; all are cleaned up with the test.
func startServer(t *testing.T) (*server.Server, string, *client.Conn) {
	t.Helper()
	db, err := core.Open(core.Options{MemTableSize: 16 << 10, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(coreStore{db})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	c, err := client.Dial(addr.String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, addr.String(), c
}

func TestClientServerRoundTrip(t *testing.T) {
	_, _, c := startServer(t)

	if err := c.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get([]byte("hello"))
	if err != nil || string(v) != "world" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := c.Get([]byte("absent")); err != kvstore.ErrNotFound {
		t.Fatalf("Get(absent) = %v", err)
	}
	if err := c.Delete([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get([]byte("hello")); err != kvstore.ErrNotFound {
		t.Fatalf("Get after Delete = %v", err)
	}
}

func TestServerScan(t *testing.T) {
	_, _, c := startServer(t)
	for i := 0; i < 50; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := c.Scan([]byte("k010"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 {
		t.Fatalf("Scan returned %d pairs", len(pairs))
	}
	for i, p := range pairs {
		wantK := fmt.Sprintf("k%03d", 10+i)
		if string(p[0]) != wantK || string(p[1]) != fmt.Sprintf("v%d", 10+i) {
			t.Fatalf("pair %d = %s=%s", i, p[0], p[1])
		}
	}
	// Empty scan result.
	pairs, err = c.Scan([]byte("z"), 10)
	if err != nil || len(pairs) != 0 {
		t.Fatalf("empty scan: %d pairs, %v", len(pairs), err)
	}
}

func TestServerStats(t *testing.T) {
	_, _, c := startServer(t)
	c.Put([]byte("k"), []byte("v"))
	c.Get([]byte("k"))
	line, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains([]byte(line), []byte("puts=1")) || !bytes.Contains([]byte(line), []byte("gets=1")) {
		t.Errorf("stats line = %q", line)
	}
	if !bytes.Contains([]byte(line), []byte("lat_put_p50_us=")) {
		t.Errorf("stats missing latency section: %q", line)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr, _ := startServer(t)

	const clients = 4
	const perClient = 200
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				k := []byte(fmt.Sprintf("c%d-k%04d", g, i))
				if err := c.Put(k, []byte("v")); err != nil {
					errCh <- err
					return
				}
				if v, err := c.Get(k); err != nil || string(v) != "v" {
					errCh <- fmt.Errorf("get %s: %q %v", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

func TestClientMPut(t *testing.T) {
	_, _, c := startServer(t)

	ops := []kvstore.BatchOp{
		{Key: []byte("m1"), Value: []byte("v1")},
		{Key: []byte("m2"), Value: []byte("v2")},
		{Key: []byte("m3"), Value: []byte("v3")},
	}
	if err := c.Batch(ops); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		v, err := c.Get(op.Key)
		if err != nil || !bytes.Equal(v, op.Value) {
			t.Fatalf("Get(%s) = %q, %v", op.Key, v, err)
		}
	}
	// A batch mixing writes and deletes applies in order.
	if err := c.Batch([]kvstore.BatchOp{
		{Key: []byte("m1"), Value: []byte("v1b")},
		{Key: []byte("m2"), Delete: true},
	}); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get([]byte("m1")); err != nil || string(v) != "v1b" {
		t.Fatalf("Get(m1) = %q, %v", v, err)
	}
	if _, err := c.Get([]byte("m2")); err != kvstore.ErrNotFound {
		t.Fatalf("Get(m2) after batched delete = %v", err)
	}
	// Empty batch is a no-op.
	if err := c.Batch(nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMPutClients(t *testing.T) {
	_, addr, _ := startServer(t)

	const clients = 4
	const batches = 40
	const batchSize = 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for b := 0; b < batches; b++ {
				ops := make([]kvstore.BatchOp, batchSize)
				for i := range ops {
					ops[i] = kvstore.BatchOp{
						Key:   []byte(fmt.Sprintf("c%d-b%03d-k%d", g, b, i)),
						Value: []byte(fmt.Sprintf("v%d.%d.%d", g, b, i)),
					}
				}
				if err := c.Batch(ops); err != nil {
					errCh <- fmt.Errorf("client %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Every batched write from every client is visible.
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for g := 0; g < clients; g++ {
		for b := 0; b < batches; b++ {
			for i := 0; i < batchSize; i++ {
				k := fmt.Sprintf("c%d-b%03d-k%d", g, b, i)
				want := fmt.Sprintf("v%d.%d.%d", g, b, i)
				v, err := c.Get([]byte(k))
				if err != nil || string(v) != want {
					t.Fatalf("Get(%s) = %q, %v (want %q)", k, v, err, want)
				}
			}
		}
	}
}

func TestBatchPayloadRoundTrip(t *testing.T) {
	in := []kvstore.BatchOp{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("del"), Delete: true},
		{Key: []byte("big"), Value: bytes.Repeat([]byte("v"), 4096)},
		{Key: []byte("empty"), Value: nil},
	}
	out, err := server.DecodeBatchPayload(server.EncodeBatchPayload(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d ops", len(out))
	}
	for i := range in {
		if !bytes.Equal(in[i].Key, out[i].Key) || !bytes.Equal(in[i].Value, out[i].Value) || in[i].Delete != out[i].Delete {
			t.Fatalf("op %d mismatch: %+v vs %+v", i, in[i], out[i])
		}
	}
	for _, bad := range [][]byte{{1}, {1, 0, 0, 0}, {1, 0, 0, 0, 0, 5, 0, 0, 0}} {
		if _, err := server.DecodeBatchPayload(bad); err == nil {
			t.Errorf("truncated batch payload %v accepted", bad)
		}
	}
}

func TestScanPayloadRoundTrip(t *testing.T) {
	in := [][2][]byte{
		{[]byte("a"), []byte("1")},
		{[]byte(""), []byte("")},
		{[]byte("key"), bytes.Repeat([]byte("v"), 1000)},
	}
	out, err := server.DecodeScanPayload(server.EncodeScanPayload(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d pairs", len(out))
	}
	for i := range in {
		if !bytes.Equal(in[i][0], out[i][0]) || !bytes.Equal(in[i][1], out[i][1]) {
			t.Fatalf("pair %d mismatch", i)
		}
	}
	if _, err := server.DecodeScanPayload([]byte{1, 2}); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestServerCloseIsClean(t *testing.T) {
	db, err := core.Open(core.Options{MemTableSize: 16 << 10, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := server.New(coreStore{db})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr.String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Put([]byte("k"), []byte("v"))
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("double close errored")
	}
	// Requests after close fail at the transport level.
	if err := c.Put([]byte("k2"), []byte("v")); err == nil {
		t.Error("Put after server close succeeded")
	}
}

// TestServerOverShardedStore serves a shard router instead of a single
// engine — the Store interface is the seam, so the server needs no
// changes — and checks the whole client surface plus the sharded stats
// extension (partition count and per-shard op tallies).
func TestServerOverShardedStore(t *testing.T) {
	r, err := shard.Open(4, core.Options{MemTableSize: 16 << 10, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(r)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		r.Close()
	})
	c, err := client.Dial(addr.String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	for i := 0; i < 100; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := c.Get([]byte("k042")); err != nil || string(v) != "v42" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	// MPUT routes through the router's batch splitter.
	batch := make([]kvstore.BatchOp, 0, 20)
	for i := 100; i < 120; i++ {
		batch = append(batch, kvstore.BatchOp{Key: []byte(fmt.Sprintf("k%03d", i)), Value: []byte("b")})
	}
	if err := c.Batch(batch); err != nil {
		t.Fatal(err)
	}
	// The scan is served by the merged cross-shard iterator: globally
	// ordered despite keys living on four engines.
	pairs, err := c.Scan([]byte("k"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 120 {
		t.Fatalf("scan returned %d pairs", len(pairs))
	}
	for i, p := range pairs {
		if want := fmt.Sprintf("k%03d", i); string(p[0]) != want {
			t.Fatalf("pair %d = %q, want %q", i, p[0], want)
		}
	}
	line, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains([]byte(line), []byte("shards=4")) {
		t.Errorf("stats line missing shards=4: %q", line)
	}
	for i := 0; i < 4; i++ {
		if !bytes.Contains([]byte(line), []byte(fmt.Sprintf("shard%d_ops=", i))) {
			t.Errorf("stats line missing shard%d_ops: %q", i, line)
		}
	}
}
