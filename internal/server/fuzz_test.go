package server_test

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"testing"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/server"
)

// The request opcodes, numbered as the wire protocol numbers them.
const (
	wireHello uint8 = iota + 1
	wireOpen
	wireRead
	wireWrite
	wireTrunc
	wireSize
	wireUsage
	wireBye
)

// wireReq assembles one request payload: id and op, then the body fields.
type wireReq []byte

func req(id uint64, op uint8) wireReq {
	return wireReq(append(binary.LittleEndian.AppendUint64(nil, id), op))
}

func (r wireReq) u32(v uint32) wireReq { return binary.LittleEndian.AppendUint32(r, v) }
func (r wireReq) i64(v int64) wireReq  { return binary.LittleEndian.AppendUint64(r, uint64(v)) }
func (r wireReq) str(s string) wireReq { return append(r.u32(uint32(len(s))), s...) }
func (r wireReq) blob(p []byte) wireReq {
	return append(r.u32(uint32(len(p))), p...)
}

// frame prefixes the payload with its length, as it goes on the wire.
func (r wireReq) frame() []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(r))), r...)
}

func frames(fs ...[]byte) []byte {
	var out []byte
	for _, f := range fs {
		out = append(out, f...)
	}
	return out
}

// FuzzServerFrame drives one connection's request loop with fuzzed bytes,
// sent after a valid hello and an open of file "f". Whatever the frames
// say, the daemon must not panic, must answer and close the connection
// within a deadline once the client stops sending, and must return every
// pooled frame it took. The tenant has a quota, so no request can make the
// in-memory store grow without bound.
func FuzzServerFrame(f *testing.F) {
	data := []byte("0123456789abcdef")
	bulk := make([]byte, 8<<10) // above the 4 KiB eager split: admitted
	for _, seed := range [][]byte{
		nil,
		frames(
			req(2, wireWrite).str("f").i64(0).blob(data).frame(),
			req(3, wireRead).str("f").i64(0).u32(16).frame(),
			req(4, wireRead).str("f").i64(8).u32(64).frame(), // short: EOF
			req(5, wireSize).str("f").frame(),
			req(6, wireUsage).frame(),
			req(7, wireTrunc).str("f").i64(4).frame(),
			req(8, wireBye).frame(),
		),
		frames(
			req(2, wireWrite).str("f").i64(4096).blob(bulk).frame(),
			req(3, wireRead).str("f").i64(0).u32(12<<10).frame(),
		),
		req(2, wireWrite).str("f").i64(-1).blob(data).frame(),
		req(2, wireWrite).str("f").i64(math.MaxInt64 - 4).blob(data).frame(),
		req(2, wireWrite).str("f").i64(1 << 40).blob(data).frame(),
		req(2, wireTrunc).str("f").i64(1 << 40).frame(),
		req(2, wireRead).str("f").i64(-8).u32(16).frame(),
		req(2, wireRead).str("f").i64(math.MaxInt64).u32(1 << 20).frame(),
		req(2, wireRead).str("f").i64(0).u32(1<<20 + 1).frame(), // over the chunk
		req(2, wireRead).str("nope").i64(0).u32(16).frame(),
		req(2, wireOpen).str("g").frame(),
		req(2, wireHello).str("fz").str("").frame(),
		req(2, 0xff).frame(),
		req(2, wireWrite).str("f").frame(),                                         // truncated body
		{0xff, 0xff, 0xff, 0x7f},                                                   // over the frame limit
		binary.LittleEndian.AppendUint32(nil, 64),                                  // length, no payload
		append(binary.LittleEndian.AppendUint32(nil, 3), 1, 2, 3),                  // shorter than an id
		append(req(2, wireRead).str("f").i64(0).u32(16).frame(), 0x10, 0x00, 0x00), // torn tail
	} {
		f.Add(seed)
	}
	hello := req(0, wireHello).str("fz").str("").frame()
	open := req(1, wireOpen).str("f").frame()
	f.Fuzz(func(t *testing.T, in []byte) {
		before := bufpool.Stats().Outstanding
		srv, err := server.Start("127.0.0.1:0", server.Config{
			Tenants:      []server.Tenant{{Name: "fz", QuotaBytes: 1 << 20}},
			StripeFactor: 2,
			StripeUnit:   4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		// Send and drain concurrently: replies to a long input must not
		// stall the request loop behind a full socket buffer.
		sent := make(chan error, 1)
		go func() {
			_, err := c.Write(frames(hello, open, in))
			if err == nil {
				err = c.(*net.TCPConn).CloseWrite()
			}
			sent <- err
		}()
		// A reset is a close too: the daemon may hang up on unread input.
		if _, err := io.Copy(io.Discard, c); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("the connection did not close within the deadline: %v", err)
		}
		<-sent // the daemon may close before reading everything sent
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if out := bufpool.Stats().Outstanding; out != before {
			t.Fatalf("pooled frames checked out: %d, want %d", out, before)
		}
	})
}
