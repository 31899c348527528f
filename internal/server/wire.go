// Package server implements dstreamd, a ViPIOS-style multi-tenant I/O
// daemon for d/streams: a long-running process in which dedicated I/O ranks
// own the parallel file system while many independent client sessions open,
// append, and read streams over TCP.
//
// The split mirrors ViPIOS's architecture (client compute processes talking
// to dedicated I/O server processes) mapped onto this repository's stack:
// the client side exposes the daemon as a pfs.Backend, so the entire
// existing machinery — the resilient retry layer, striped-geometry-aware
// two-phase aggregation, read-ahead prefetching, chaos hardening — runs
// unchanged against remote storage. The server side adds what a shared
// daemon needs and a single-program library does not: per-tenant namespaces
// and byte quotas, admission control and credit-based backpressure when
// aggregate demand exceeds the stripe bandwidth, session resume across
// client disconnects, and per-tenant observability on one /metrics page.
//
// # Wire protocol
//
// One TCP connection per session, carrying length-prefixed frames both
// ways. Requests are tagged with a client-chosen id and may complete out of
// order (the client multiplexes concurrent rank goroutines onto the one
// connection); every request produces exactly one response with the same
// id. All integers are little-endian; strings and byte blobs are u32
// length-prefixed.
//
//	frame    := len(u32) payload
//	request  := id(u64) op(u8) body
//	response := id(u64) status(u8) body
//
// Requests are stateless with respect to file handles — reads and writes
// name the file, and the server resolves names against the session's tenant
// namespace — which is what makes a resend after reconnect idempotent: the
// same bytes at the same offset of the same file.
//
// Transient storage faults under the daemon (chaos injection, short
// transfers) are reported with statusTransient and re-wrapped as
// pfs.ErrTransient on the client, so the client file system's retry layer
// absorbs them exactly as it does for local storage. Quota breaches,
// unknown tenants, and admission rejections are permanent statuses and
// surface as clean errors.
package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"pcxxstreams/internal/bufpool"
)

// Protocol limits.
const (
	// maxFrame bounds one wire frame; requests are chunked client-side well
	// below it, so anything larger is a corrupt stream.
	maxFrame = 16 << 20
	// chunkBytes is the client-side transfer granularity: larger reads and
	// writes are split so no single frame monopolizes the connection and
	// credit accounting stays fine-grained.
	chunkBytes = 1 << 20
)

// Request opcodes.
const (
	opHello uint8 = iota + 1 // tenant, token → token, window, quota, used, resumed
	opOpen                   // name → size, stripe unit, stripe factor
	opRead                   // name, off, n → eof, data
	opWrite                  // name, off, data → n
	opTrunc                  // name, size → –
	opSize                   // name → size
	opUsage                  // – → used, quota
	opBye                    // – → –
)

// Response statuses.
const (
	statusOK        uint8 = iota // body per op
	statusEOF                    // read only: data (possibly short) + genuine EOF
	statusTransient              // retryable storage fault; body: msg (+ partial data/count)
	statusQuota                  // tenant byte quota exceeded; body: msg
	statusAuth                   // unknown tenant / bad hello; body: msg
	statusBusy                   // admission refused (session limit); body: msg
	statusErr                    // permanent failure; body: msg
)

func opName(op uint8) string {
	switch op {
	case opHello:
		return "hello"
	case opOpen:
		return "open"
	case opRead:
		return "read"
	case opWrite:
		return "write"
	case opTrunc:
		return "trunc"
	case opSize:
		return "size"
	case opUsage:
		return "usage"
	case opBye:
		return "bye"
	}
	return fmt.Sprintf("op(%d)", op)
}

// readReplyHdr is the fixed head of a read reply that carries data: frame
// length (u32), id (u64), status (u8) and data length (u32). The I/O rank
// reads the file straight into a buffer behind it.
const readReplyHdr = 4 + 8 + 1 + 4

// writeFrame writes one length-prefixed frame whose payload is head
// followed by tail (nil for most frames), in one vectored write, so a bulk
// tail is never copied into the frame. The caller serializes writers.
func writeFrame(w io.Writer, head, tail []byte) error {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(head)+len(tail)))
	bufs := net.Buffers{n[:], head, tail}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads one length-prefixed frame into a pooled buffer. The
// caller owns the frame and returns it with bufpool.Put once nothing
// decoded from it is still in use.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("dstreamd: frame of %d bytes exceeds the %d limit", n, maxFrame)
	}
	buf := bufpool.Get(int(n))
	if _, err := io.ReadFull(r, buf); err != nil {
		bufpool.Put(buf)
		return nil, err
	}
	return buf, nil
}

// --- append-style encoders ---

func putU8(b []byte, v uint8) []byte   { return append(b, v) }
func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func putI64(b []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(v)) }
func putStr(b []byte, s string) []byte { return append(putU32(b, uint32(len(s))), s...) }
func putBytes(b, p []byte) []byte      { return append(putU32(b, uint32(len(p))), p...) }

// reader is a cursor over one frame payload; decoding errors are sticky.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("dstreamd: truncated frame")
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) bytes() []byte {
	n := r.u32()
	if r.err != nil || uint32(len(r.b)) < n {
		r.fail()
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) str() string { return string(r.bytes()) }
