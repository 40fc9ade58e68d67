package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"miodb/internal/client"
	"miodb/internal/core"
	"miodb/internal/kvstore"
	"miodb/internal/nvm"
	"miodb/internal/server"
	"miodb/internal/vlog"
)

// kv is the surface a caller drives: the engine itself for the local
// workloads, one pipelined client connection for the served one. Tests
// wrap it to inject faults.
type kv interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, error)
	Scan(start []byte, limit int) ([][2][]byte, error)
}

// localKV calls the engine directly.
type localKV struct{ db *core.DB }

func (l localKV) Put(key, value []byte) error    { return l.db.Put(key, value) }
func (l localKV) Get(key []byte) ([]byte, error) { return l.db.Get(key) }

func (l localKV) Scan(start []byte, limit int) ([][2][]byte, error) {
	out := make([][2][]byte, 0, limit)
	err := l.db.Scan(start, limit, func(k, v []byte) bool {
		out = append(out, [2][]byte{append([]byte(nil), k...), append([]byte(nil), v...)})
		return true
	})
	return out, err
}

// servedStore is the kvstore.Store the server fronts: the engine, plus a
// count of the merged batches the server's batcher commits into it.
type servedStore struct {
	*core.DB
	batches, batchOps atomic.Int64
}

func (s *servedStore) Flush() error { return s.DB.FlushAll() }

func (s *servedStore) WriteBatch(ops []kvstore.BatchOp) error {
	s.batches.Add(1)
	s.batchOps.Add(int64(len(ops)))
	return s.DB.WriteBatch(ops)
}

// env is one opened, preloaded, drained store and, for served workloads,
// its server and client connections.
type env struct {
	w      workload
	db     *core.DB
	served *servedStore
	srv    *server.Server
	conns  []*client.Conn
	o      *oracle
}

// caller returns the surface caller c drives: callers are spread evenly
// over the connections.
func (e *env) caller(c int) kv {
	if e.conns != nil {
		return e.conns[c%len(e.conns)]
	}
	return localKV{e.db}
}

// open opens the engine with default options (64 KB memtable, 8 levels,
// WAL on, one shard, no admission control) and Simulate off, so wall-clock
// time is the program's own CPU cost. It preloads generation 1 of keys
// [0, w.preload), drains to idle and, for a served workload, starts the
// server on a loopback port and dials the client connections.
func open(w workload, o *oracle) (*env, error) {
	opts := core.Options{}
	if w.valueLog {
		opts.ValueLog = &core.ValueLogOptions{}
	}
	db, err := core.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	e := &env{w: w, db: db, o: o}
	if err := e.preload(); err != nil {
		e.close()
		return nil, err
	}
	if _, err := drainToIdle(db); err != nil {
		e.close()
		return nil, err
	}
	if w.served {
		e.served = &servedStore{DB: db}
		e.srv = server.New(e.served)
		addr, err := e.srv.Listen("127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		perConn := w.clients / w.conns
		for i := 0; i < w.conns; i++ {
			c, err := client.Dial(addr.String(), client.Options{Window: perConn})
			if err != nil {
				e.close()
				return nil, fmt.Errorf("dial: %w", err)
			}
			e.conns = append(e.conns, c)
		}
	}
	return e, nil
}

// preloadBatch is the number of records per preload commit.
const preloadBatch = 128

func (e *env) preload() error {
	ops := make([]kvstore.BatchOp, 0, preloadBatch)
	buf := make([]byte, preloadBatch*(keyLen+e.w.valueSize))
	for base := 0; base < e.w.preload; base += preloadBatch {
		ops = ops[:0]
		b := buf[:0]
		for k := base; k < base+preloadBatch && k < e.w.preload; k++ {
			b = appendKey(b, k)
			key := b[len(b)-keyLen:]
			b = b[:len(b)+e.w.valueSize]
			val := b[len(b)-e.w.valueSize:]
			fillValue(val, k, 1)
			ops = append(ops, kvstore.BatchOp{Key: key, Value: val})
		}
		if err := e.db.WriteBatch(ops); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	for k := 0; k < e.w.preload; k++ {
		e.o.issued[k].Store(1)
		e.o.acked[k].Store(1)
	}
	e.o.written.Add(int64(e.w.preload))
	return nil
}

func (e *env) close() {
	for _, c := range e.conns {
		c.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	e.db.Close()
}

// quiet is everything background work moves: device traffic, value-log
// accounting (GC relocations and reclaims) and the sequence number
// (relocations commit through the write path).
type quiet struct {
	nvm, dram nvm.Counters
	vlog      vlog.Counters
	seq       uint64
}

func quietSample(db *core.DB) quiet {
	dram, nv := db.Devices()
	return quiet{nvm: nv.Counters(), dram: dram.Counters(), vlog: db.ValueLogCounters(), seq: db.LastSeq()}
}

// Drain polling: WaitIdle covers flush, merge, lazy copy and repository
// work but not the value-log GC loop, so the store counts as idle only
// once WaitIdle has returned and the counters above held still across
// quietPolls consecutive polls.
const (
	quietPolls   = 3
	pollInterval = 2 * time.Millisecond
	drainTimeout = 60 * time.Second
)

// drainToIdle returns how long the store took to become idle.
func drainToIdle(db *core.DB) (time.Duration, error) {
	start := time.Now()
	var prev quiet
	still := -1
	for {
		db.WaitIdle()
		if err := db.Err(); err != nil {
			return 0, fmt.Errorf("drain: %w", err)
		}
		cur := quietSample(db)
		if cur == prev {
			still++
		} else {
			prev, still = cur, 0
		}
		if still >= quietPolls {
			return time.Since(start), nil
		}
		if time.Since(start) > drainTimeout {
			return 0, errors.New("drain: store still busy after 60s")
		}
		time.Sleep(pollInterval)
	}
}
