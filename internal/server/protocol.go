// Package server provides the TCP key-value service over any store in the
// repository (MioDB or a baseline) and its wire codec. It turns the
// single-process reproduction into something a downstream user can
// actually deploy and benchmark over a network.
//
// The wire protocol (v2; all integers little-endian) opens with the
// client sending the 4-byte magic "MIO2" immediately after connect; the
// server closes a connection that opens with anything else. Every request
// carries a client-chosen 8-byte tag; many requests may be in flight per
// connection and responses return in completion order, each echoing the
// tag of the request it answers:
//
//	request  := tag(8) | op(1) | keyLen(4) | key | valLen(4) | val
//	response := tag(8) | status(1) | payloadLen(4) | payload
//
// internal/client speaks it.
//
// For SCAN, key is the start key and val carries the 4-byte limit; the
// response payload is a sequence of keyLen|key|valLen|val pairs.
//
// The versioned read ops (SNAP, SNAPGET, MGET, SNAPREL) and DELRANGE ride
// the same frames; see the op-code constants for their key/val layouts.
// Snapshots are per-connection state: ids are only meaningful on the
// connection that created them and are released on disconnect.
package server

import (
	"encoding/binary"
	"fmt"
	"io"

	"miodb/internal/kvstore"
)

// Op codes.
const (
	OpGet byte = iota + 1
	OpPut
	OpDelete
	OpScan
	OpStats
	// OpMPut applies a batch of writes atomically in one round trip. The
	// request key frame is empty; the value frame carries the batch payload
	// (see EncodeBatchPayload). Batches feed the store's group-commit
	// pipeline directly when it implements kvstore.BatchWriter.
	OpMPut

	// OpSnap captures a consistent snapshot on the server and returns its
	// 8-byte id in the response payload. The snapshot is owned by the
	// connection: it is released by OpSnapRel or automatically when the
	// connection closes. Requires a kvstore.Snapshotter store.
	OpSnap
	// OpSnapGet reads one key from a snapshot: key is the key, val the
	// 8-byte snapshot id. Status/payload behave exactly like OpGet.
	OpSnapGet
	// OpMGet answers several point lookups in one round trip. The key
	// frame is empty; the value frame carries the request payload (see
	// EncodeMGetRequest): an 8-byte snapshot id (0 = the live store) and
	// the keys. The response payload is EncodeMGetResponse.
	OpMGet
	// OpDelRange deletes every key k with start ≤ k < end in one
	// operation: key is the inclusive start, val the exclusive end (empty
	// = unbounded). Requires a kvstore.RangeDeleter store.
	OpDelRange
	// OpSnapRel releases a snapshot: val is the 8-byte snapshot id.
	OpSnapRel

	// opCount bounds the op-code space for per-op accounting tables.
	opCount = OpSnapRel + 1
)

// Status codes.
const (
	StatusOK byte = iota
	StatusNotFound
	StatusError
)

// MagicV2 is the preamble a client sends right after connect.
var MagicV2 = [4]byte{'M', 'I', 'O', '2'}

// maxFrame bounds any key/value/payload length on the wire.
const maxFrame = 64 << 20

// validOp reports whether b is a defined op code.
func validOp(b byte) bool { return b >= OpGet && b <= OpSnapRel }

// opName names an op code for stats lines.
func opName(op byte) string {
	switch op {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	case OpStats:
		return "stats"
	case OpMPut:
		return "mput"
	case OpSnap:
		return "snap"
	case OpSnapGet:
		return "snapget"
	case OpMGet:
		return "mget"
	case OpDelRange:
		return "delrange"
	case OpSnapRel:
		return "snaprel"
	}
	return fmt.Sprintf("op%d", op)
}

// readFrame reads one length-prefixed byte string.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds limit", n)
	}
	if n == 0 {
		return nil, nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// appendFrame appends one length-prefixed byte string to dst.
func appendFrame(dst, b []byte) []byte {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(b)))
	dst = append(dst, hdr[:]...)
	return append(dst, b...)
}

// request is one decoded client request.
type request struct {
	op       byte
	key, val []byte
}

// AppendTaggedRequest appends one protocol-v2 request frame to dst and
// returns the extended slice. Encoding into a single buffer lets callers
// hand the whole frame to the transport in one write.
func AppendTaggedRequest(dst []byte, tag uint64, op byte, key, val []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], tag)
	dst = append(dst, hdr[:]...)
	dst = append(dst, op)
	dst = appendFrame(dst, key)
	return appendFrame(dst, val)
}

// taggedRequest is one decoded v2 request.
type taggedRequest struct {
	tag uint64
	request
}

// readTaggedRequest decodes one v2 request frame.
func readTaggedRequest(r io.Reader) (taggedRequest, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return taggedRequest{}, err
	}
	tag := binary.LittleEndian.Uint64(hdr[:8])
	op := hdr[8]
	if !validOp(op) {
		return taggedRequest{}, fmt.Errorf("server: unknown op 0x%02x in tagged request", op)
	}
	key, err := readFrame(r)
	if err != nil {
		return taggedRequest{}, err
	}
	val, err := readFrame(r)
	if err != nil {
		return taggedRequest{}, err
	}
	return taggedRequest{tag: tag, request: request{op: op, key: key, val: val}}, nil
}

// appendTaggedResponse appends one v2 response frame to dst.
func appendTaggedResponse(dst []byte, tag uint64, status byte, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], tag)
	dst = append(dst, hdr[:]...)
	dst = append(dst, status)
	return appendFrame(dst, payload)
}

// ReadTaggedResponse decodes one v2 response frame: the tag of the
// request it answers, the status, and the payload.
func ReadTaggedResponse(r io.Reader) (tag uint64, status byte, payload []byte, err error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	tag = binary.LittleEndian.Uint64(hdr[:8])
	status = hdr[8]
	payload, err = readFrame(r)
	return tag, status, payload, err
}

// EncodeBatchPayload packs an MPUT batch:
//
//	count(4) | per op: flags(1) | keyLen(4) | key | valLen(4) | val
//
// flags bit 0 marks a delete (the value frame is then empty); bit 1 marks
// a range delete (key carries the inclusive start, val the exclusive
// end — empty = unbounded).
func EncodeBatchPayload(ops []kvstore.BatchOp) []byte {
	size := 4
	for _, op := range ops {
		size += 9 + len(op.Key) + len(op.Value)
	}
	out := make([]byte, 0, size)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(ops)))
	out = append(out, hdr[:]...)
	for _, op := range ops {
		flags := byte(0)
		if op.Delete {
			flags = 1
		}
		if op.RangeDelete {
			flags = 2
		}
		out = append(out, flags)
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(op.Key)))
		out = append(out, hdr[:]...)
		out = append(out, op.Key...)
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(op.Value)))
		out = append(out, hdr[:]...)
		out = append(out, op.Value...)
	}
	return out
}

// DecodeBatchPayload unpacks an MPUT batch.
func DecodeBatchPayload(b []byte) ([]kvstore.BatchOp, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("server: truncated batch payload")
	}
	count := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if count > maxFrame/9 {
		return nil, fmt.Errorf("server: absurd batch count %d", count)
	}
	ops := make([]kvstore.BatchOp, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < 5 {
			return nil, fmt.Errorf("server: truncated batch op")
		}
		flags := b[0]
		kl := binary.LittleEndian.Uint32(b[1:5])
		b = b[5:]
		if uint32(len(b)) < kl+4 || kl > maxFrame {
			return nil, fmt.Errorf("server: truncated batch key")
		}
		k := b[:kl]
		b = b[kl:]
		vl := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < vl {
			return nil, fmt.Errorf("server: truncated batch value")
		}
		v := b[:vl]
		b = b[vl:]
		ops = append(ops, kvstore.BatchOp{Key: k, Value: v, Delete: flags&1 != 0, RangeDelete: flags&2 != 0})
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("server: %d trailing bytes in batch payload", len(b))
	}
	return ops, nil
}

// EncodeMGetRequest packs an MGET request:
//
//	snapID(8) | count(4) | per key: keyLen(4) | key
//
// snapID 0 targets the live store; any other id must name a snapshot
// previously captured on the same connection with OpSnap.
func EncodeMGetRequest(snapID uint64, keys [][]byte) []byte {
	size := 12
	for _, k := range keys {
		size += 4 + len(k)
	}
	out := make([]byte, 0, size)
	var hdr8 [8]byte
	binary.LittleEndian.PutUint64(hdr8[:], snapID)
	out = append(out, hdr8[:]...)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(keys)))
	out = append(out, hdr[:]...)
	for _, k := range keys {
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(k)))
		out = append(out, hdr[:]...)
		out = append(out, k...)
	}
	return out
}

// DecodeMGetRequest unpacks an MGET request.
func DecodeMGetRequest(b []byte) (snapID uint64, mkeys [][]byte, err error) {
	if len(b) < 12 {
		return 0, nil, fmt.Errorf("server: truncated mget request")
	}
	snapID = binary.LittleEndian.Uint64(b)
	count := binary.LittleEndian.Uint32(b[8:])
	b = b[12:]
	if count > maxFrame/4 {
		return 0, nil, fmt.Errorf("server: absurd mget count %d", count)
	}
	mkeys = make([][]byte, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < 4 {
			return 0, nil, fmt.Errorf("server: truncated mget key")
		}
		kl := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < kl || kl > maxFrame {
			return 0, nil, fmt.Errorf("server: truncated mget key")
		}
		mkeys = append(mkeys, b[:kl])
		b = b[kl:]
	}
	if len(b) != 0 {
		return 0, nil, fmt.Errorf("server: %d trailing bytes in mget request", len(b))
	}
	return snapID, mkeys, nil
}

// EncodeMGetResponse packs positional MGET results:
//
//	count(4) | per key: flag(1) | valLen(4) | val
//
// flag 0 = found (val is the value), 1 = not found (val is empty). The
// caller must have screened errs down to nil / kvstore.ErrNotFound —
// any other per-key error fails the whole request with StatusError.
func EncodeMGetResponse(values [][]byte, errs []error) []byte {
	size := 4
	for _, v := range values {
		size += 5 + len(v)
	}
	out := make([]byte, 0, size)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(values)))
	out = append(out, hdr[:]...)
	for i, v := range values {
		flag := byte(0)
		if errs[i] != nil {
			flag = 1
			v = nil
		}
		out = append(out, flag)
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(v)))
		out = append(out, hdr[:]...)
		out = append(out, v...)
	}
	return out
}

// DecodeMGetResponse unpacks positional MGET results: values[i] is the
// value for the i-th requested key and errs[i] is nil or
// kvstore.ErrNotFound.
func DecodeMGetResponse(b []byte) (values [][]byte, errs []error, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("server: truncated mget response")
	}
	count := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if count > maxFrame/5 {
		return nil, nil, fmt.Errorf("server: absurd mget count %d", count)
	}
	values = make([][]byte, 0, count)
	errs = make([]error, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < 5 {
			return nil, nil, fmt.Errorf("server: truncated mget entry")
		}
		flag := b[0]
		vl := binary.LittleEndian.Uint32(b[1:5])
		b = b[5:]
		if uint32(len(b)) < vl {
			return nil, nil, fmt.Errorf("server: truncated mget value")
		}
		if flag != 0 {
			values = append(values, nil)
			errs = append(errs, kvstore.ErrNotFound)
		} else {
			values = append(values, b[:vl])
			errs = append(errs, nil)
		}
		b = b[vl:]
	}
	if len(b) != 0 {
		return nil, nil, fmt.Errorf("server: %d trailing bytes in mget response", len(b))
	}
	return values, errs, nil
}

// EncodeScanPayload packs scan results as keyLen|key|valLen|val pairs.
func EncodeScanPayload(pairs [][2][]byte) []byte {
	size := 0
	for _, p := range pairs {
		size += 8 + len(p[0]) + len(p[1])
	}
	out := make([]byte, 0, size)
	var hdr [4]byte
	for _, p := range pairs {
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(p[0])))
		out = append(out, hdr[:]...)
		out = append(out, p[0]...)
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(p[1])))
		out = append(out, hdr[:]...)
		out = append(out, p[1]...)
	}
	return out
}

// DecodeScanPayload unpacks scan results.
func DecodeScanPayload(b []byte) ([][2][]byte, error) {
	var out [][2][]byte
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("server: truncated scan payload")
		}
		kl := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < kl+4 || kl > maxFrame {
			return nil, fmt.Errorf("server: truncated scan key")
		}
		k := b[:kl]
		b = b[kl:]
		vl := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < vl {
			return nil, fmt.Errorf("server: truncated scan value")
		}
		v := b[:vl]
		b = b[vl:]
		out = append(out, [2][]byte{k, v})
	}
	return out, nil
}
