// Package transport defines the message-oriented transport abstraction the
// RPC layer runs over. Two implementations exist: internal/simnet (a virtual
// wide-area network driven by virtual time, substituting for the paper's
// NIST Net emulator) and internal/tcpnet (real TCP with length-prefix
// framing, used by the standalone daemons and examples).
package transport

import (
	"errors"
	"sync"
)

var (
	// ErrClosed is returned by operations on a closed connection or listener.
	ErrClosed = errors.New("transport: closed")
	// ErrUnreachable is returned when the remote address has no listener or
	// the network refuses to carry traffic there (e.g. a simulated partition
	// at connection-establishment time).
	ErrUnreachable = errors.New("transport: unreachable")
	// ErrAddrInUse is returned by Listen when the address is already bound.
	ErrAddrInUse = errors.New("transport: address in use")
)

// Conn is a bidirectional, message-preserving connection. Implementations
// must be safe for one concurrent sender and one concurrent receiver;
// concurrent Sends are also safe.
type Conn interface {
	// Send transmits one message. The slice is not retained.
	Send(msg []byte) error
	// Recv blocks for the next message or returns ErrClosed when the
	// connection is closed and drained.
	Recv() ([]byte, error)
	// Close tears the connection down; pending Recvs are released.
	Close() error
	// LocalAddr and RemoteAddr return "host:port" style addresses.
	LocalAddr() string
	RemoteAddr() string
}

// Gatherer is a Conn that puts a message given in two parts on the wire
// without joining them first (tcpnet: one writev of prefix, head and tail).
// It is not part of Conn on purpose: a wrapper that embeds a Conn — a delay
// line, a tap, a fault injector — would gain the method by promotion and send
// around its own Send. SendParts finds it by type assertion, so a wrapper
// gathers only if it says so itself.
type Gatherer interface {
	// SendGather transmits head followed by tail as one message. Neither
	// slice is retained.
	SendGather(head, tail []byte) error
}

// SendParts transmits head followed by tail as one message on c. A Gatherer
// sends the tail by reference; any other Conn is handed the two joined in a
// pooled buffer — the one copy that building the message in one piece would
// have cost, and no allocation of the message's size. An empty tail is
// c.Send(head).
func SendParts(c Conn, head, tail []byte) error {
	if len(tail) == 0 {
		return c.Send(head)
	}
	if g, ok := c.(Gatherer); ok {
		return g.SendGather(head, tail)
	}
	buf := joins.Get().(*[]byte)
	msg := append(append((*buf)[:0], head...), tail...)
	err := c.Send(msg)
	*buf = msg[:0]
	joins.Put(buf)
	return err
}

// joins holds the buffers SendParts joins messages in, each keeping the
// capacity it has grown to, as the RPC layer's pooled encoders do. (Buffers
// of bufpool's size classes measured slower here: a joined 1 MiB WRITE shares
// its class with every 1 MiB frame received.)
var joins = sync.Pool{New: func() any { return new([]byte) }}

// Listener accepts inbound connections on a bound address.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() string
}

// Network creates connections and listeners. The simulated network issues
// per-host handles; real TCP has a single process-wide implementation.
type Network interface {
	Dial(addr string) (Conn, error)
	Listen(addr string) (Listener, error)
}
