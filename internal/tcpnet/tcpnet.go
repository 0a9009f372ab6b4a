// Package tcpnet implements the transport abstraction over real TCP with
// 4-byte big-endian length-prefix framing. It backs the standalone daemons
// (cmd/gvfs-*) and examples so the same protocol stack that runs in the
// simulator also runs across real networks.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/transport"
)

// MaxMessage bounds a single framed message (guards against corrupt length
// prefixes). NFS READ/WRITE payloads in this repository are far smaller.
const MaxMessage = 16 << 20

// Net implements transport.Network over the operating system's TCP stack.
type Net struct{}

var _ transport.Network = Net{}

// Dial connects to a TCP listener at addr.
func (Net) Dial(addr string) (transport.Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", transport.ErrUnreachable, err)
	}
	return newConn(nc), nil
}

// Listen binds a TCP listener at addr ("host:port"; port 0 picks a free one).
func (Net) Listen(addr string) (transport.Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet listen %s: %w", addr, err)
	}
	return &listener{nl: nl}, nil
}

type listener struct {
	nl net.Listener
}

func (l *listener) Accept() (transport.Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, transport.ErrClosed
		}
		return nil, err
	}
	return newConn(nc), nil
}

func (l *listener) Close() error { return l.nl.Close() }
func (l *listener) Addr() string { return l.nl.Addr().String() }

// readBufSize is the per-connection read buffer. The length prefix and
// whatever arrived with it — the whole of a small frame, several pipelined
// ones — cost one read system call; what is left of a frame larger than the
// buffer is read straight into the frame, so a 32 KiB payload copies through
// here only the bytes that came in with its header.
const readBufSize = 4096

type conn struct {
	nc net.Conn

	// Send state, under sendMu: the length prefix and the vector of prefix,
	// head and tail that writev takes live here so a Send allocates nothing.
	sendMu sync.Mutex
	hdr    [4]byte
	vec    [3][]byte
	bufs   net.Buffers

	// Recv state, under recvMu: rbuf[r:w] is read but not yet delivered.
	recvMu sync.Mutex
	rbuf   [readBufSize]byte
	r, w   int
}

var (
	_ transport.Conn     = (*conn)(nil)
	_ transport.Gatherer = (*conn)(nil)
)

func newConn(nc net.Conn) *conn { return &conn{nc: nc} }

// Send writes the length prefix and the message with one writev, so a frame
// is one system call and — small enough — one segment and one wake-up of the
// peer. Concurrent Sends serialise on sendMu and never interleave.
func (c *conn) Send(msg []byte) error { return c.SendGather(msg, nil) }

// SendGather is Send of head followed by tail, written from where they lie:
// prefix, head and tail go to the kernel in one writev, however many
// partial writes it takes, before sendMu lets another frame in. A frame over
// MaxMessage is refused before a byte of it is written.
func (c *conn) SendGather(head, tail []byte) error {
	n := len(head) + len(tail)
	if n > MaxMessage {
		return fmt.Errorf("tcpnet: message of %d bytes exceeds limit", n)
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	binary.BigEndian.PutUint32(c.hdr[:], uint32(n))
	c.vec = [3][]byte{c.hdr[:], head, tail}
	c.bufs = c.vec[:]
	_, err := c.bufs.WriteTo(c.nc)
	c.vec = [3][]byte{} // WriteTo clears what it consumed; on error do not pin the parts
	if err != nil {
		return mapErr(err)
	}
	return nil
}

// Recv returns the next frame in a buffer from the shared pool that the
// caller owns outright: it never aliases the connection's read buffer, so it
// may be handed to bufpool.Put (the RPC server does once a request is
// terminal, a client's caller when it releases the reply) while the next Recv
// is already running.
func (c *conn) Recv() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if c.w-c.r < 4 {
		// Move the partial prefix to the front and read until it is whole,
		// taking along whatever else has arrived.
		c.w = copy(c.rbuf[:], c.rbuf[c.r:c.w])
		c.r = 0
		n, err := io.ReadAtLeast(c.nc, c.rbuf[c.w:], 4-c.w)
		c.w += n
		if err != nil {
			return nil, mapErr(err)
		}
	}
	n := binary.BigEndian.Uint32(c.rbuf[c.r:])
	if n > MaxMessage {
		return nil, fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", n)
	}
	c.r += 4
	buf := bufpool.Get(int(n))
	got := copy(buf, c.rbuf[c.r:c.w])
	c.r += got
	if _, err := io.ReadFull(c.nc, buf[got:]); err != nil {
		bufpool.Put(buf)
		return nil, mapErr(err)
	}
	return buf, nil
}

func (c *conn) Close() error       { return c.nc.Close() }
func (c *conn) LocalAddr() string  { return c.nc.LocalAddr().String() }
func (c *conn) RemoteAddr() string { return c.nc.RemoteAddr().String() }

func mapErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF) {
		return transport.ErrClosed
	}
	return err
}
