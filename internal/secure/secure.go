// Package secure provides session-key encrypted channels: the paper notes
// that WAN-specific features such as encryption are handled by the GVFS
// middleware using per-session keys (Section 6, citing its prior work).
// This implementation wraps any transport.Conn with AES-256-GCM, deriving
// the key from the session key string, so a session's wide-area traffic is
// confidential and integrity-protected while loopback traffic stays plain.
package secure

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/transport"
)

// KeyFromSession derives a 32-byte AES key from a session key string.
func KeyFromSession(sessionKey string) [32]byte {
	return sha256.Sum256([]byte("gvfs-session-channel:" + sessionKey))
}

// Conn wraps an inner message connection with AEAD sealing. Each direction
// uses a deterministic nonce counter (message streams are ordered and
// reliable, so a counter nonce is safe and replay is detectable).
type Conn struct {
	inner transport.Conn
	aead  cipher.AEAD

	// sendMu makes a Send's nonce and its place on the wire one step:
	// concurrent Sends (an RPC server's pipelined replies) must reach the
	// peer in nonce order or it rejects them.
	sendMu  sync.Mutex
	sendSeq uint64
	recvSeq uint64
	// role disambiguates the two directions' nonce spaces.
	sendRole byte
	recvRole byte
}

var _ transport.Conn = (*Conn)(nil)

// Client wraps the dialer-side connection.
func Client(inner transport.Conn, key [32]byte) (*Conn, error) {
	return newConn(inner, key, 0, 1)
}

// Server wraps the acceptor-side connection.
func Server(inner transport.Conn, key [32]byte) (*Conn, error) {
	return newConn(inner, key, 1, 0)
}

func newConn(inner transport.Conn, key [32]byte, sendRole, recvRole byte) (*Conn, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &Conn{inner: inner, aead: aead, sendRole: sendRole, recvRole: recvRole}, nil
}

func nonce(role byte, seq uint64, size int) []byte {
	n := make([]byte, size)
	n[0] = role
	binary.BigEndian.PutUint64(n[size-8:], seq)
	return n
}

// Send seals and transmits one message.
func (c *Conn) Send(msg []byte) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	n := nonce(c.sendRole, c.sendSeq, c.aead.NonceSize())
	c.sendSeq++
	sealed := c.aead.Seal(nil, n, msg, nil)
	return c.inner.Send(sealed)
}

// Recv receives and opens one message. Tampered or replayed frames fail
// authentication and surface as errors.
func (c *Conn) Recv() ([]byte, error) {
	sealed, err := c.inner.Recv()
	if err != nil {
		return nil, err
	}
	n := nonce(c.recvRole, c.recvSeq, c.aead.NonceSize())
	c.recvSeq++
	msg, err := c.aead.Open(nil, n, sealed, nil)
	if err != nil {
		return nil, fmt.Errorf("secure: authentication failed (tampered or out-of-order frame): %w", err)
	}
	return msg, nil
}

// Close closes the inner connection.
func (c *Conn) Close() error { return c.inner.Close() }

// LocalAddr reports the inner connection's local address.
func (c *Conn) LocalAddr() string { return c.inner.LocalAddr() }

// RemoteAddr reports the inner connection's remote address.
func (c *Conn) RemoteAddr() string { return c.inner.RemoteAddr() }

// Listener wraps an accepting side so every accepted connection is sealed
// with the session key.
type Listener struct {
	inner transport.Listener
	key   [32]byte
}

var _ transport.Listener = (*Listener)(nil)

// NewListener wraps inner.
func NewListener(inner transport.Listener, key [32]byte) *Listener {
	return &Listener{inner: inner, key: key}
}

// Accept wraps the next inbound connection.
func (l *Listener) Accept() (transport.Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	return Server(c, l.key)
}

// Close closes the inner listener.
func (l *Listener) Close() error { return l.inner.Close() }

// Addr reports the inner listener's address.
func (l *Listener) Addr() string { return l.inner.Addr() }
