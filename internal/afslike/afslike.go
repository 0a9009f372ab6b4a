// Package afslike is a minimal AFS-style distributed file service used as
// the traditional strong-consistency reference point in Figure 6 (the paper
// tests OpenAFS 1.2.11). The lock benchmark only asks whether a path exists
// and creates, links and removes files, so that is all there is: clients
// cache what they have learnt exists, and the server keeps a callback promise
// per cached path, broken by a server-to-client RPC whenever another client
// mutates it. File data is never transferred.
//
// The protocol is path-based and intentionally small; the paper notes AFS's
// RPC mix is not comparable to NFS's, so only runtimes are reported for it.
package afslike

import (
	"errors"
	"strings"
	"sync"

	"repro/internal/memfs"
	"repro/internal/sunrpc"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/xdr"
)

// RPC program numbers (site-local transient range).
const (
	Program = 400200
	Version = 1

	ProcStat   = 3
	ProcCreate = 4
	ProcRemove = 5
	ProcLink   = 6

	CallbackProgram = 400201
	CallbackVersion = 1
	ProcBreak       = 1
)

// Status codes.
const (
	StatusOK     = 0
	StatusNoEnt  = 1
	StatusExist  = 2
	StatusIOErr  = 3
	StatusNotDir = 4
)

// Errors mirrored from statuses.
var (
	ErrNotExist = errors.New("afslike: no such file")
	ErrExist    = errors.New("afslike: file exists")
	ErrIO       = errors.New("afslike: i/o error")
)

func statusErr(st uint32) error {
	switch st {
	case StatusOK:
		return nil
	case StatusNoEnt:
		return ErrNotExist
	case StatusExist:
		return ErrExist
	default:
		return ErrIO
	}
}

// Server exports a memfs tree with callback promises.
type Server struct {
	clk  *vclock.Clock
	fs   *memfs.FS
	rpc  *sunrpc.Server
	dial func(addr string) (transport.Conn, error)

	mu        sync.Mutex
	callbacks map[string]map[string]bool // path -> set of client callback addrs
	cbConns   map[string]*sunrpc.Client  // callback addr -> connection
}

// NewServer wraps fs. dial reaches clients' callback listeners.
func NewServer(clk *vclock.Clock, fs *memfs.FS, dial func(string) (transport.Conn, error)) *Server {
	s := &Server{
		clk:       clk,
		fs:        fs,
		dial:      dial,
		rpc:       sunrpc.NewServer(clk),
		callbacks: make(map[string]map[string]bool),
		cbConns:   make(map[string]*sunrpc.Client),
	}
	s.rpc.Register(Program, Version, s.dispatch)
	return s
}

// Serve starts accepting clients on l.
func (s *Server) Serve(l transport.Listener) { s.rpc.Serve(l) }

// Close shuts the server down.
func (s *Server) Close() {
	s.mu.Lock()
	conns := make([]*sunrpc.Client, 0, len(s.cbConns))
	for _, c := range s.cbConns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	s.rpc.Close()
}

// caller identifies the client and its callback address from the AUTH_SYS
// machine name, which clients set to their callback address.
func caller(call *sunrpc.Call) string {
	if call.Cred.Flavor != sunrpc.AuthSys {
		return ""
	}
	d := xdr.NewDecoder(call.Cred.Body)
	d.Uint32() // stamp
	machine, err := d.String(255)
	if err != nil {
		return ""
	}
	return machine
}

func (s *Server) dispatch(call *sunrpc.Call) sunrpc.AcceptStat {
	path, err := call.Args.String(1024)
	if err != nil {
		return sunrpc.GarbageArgs
	}
	from := caller(call)
	switch call.Proc {
	case ProcStat:
		attr, err := s.fs.LookupPath(path)
		if err != nil {
			call.Reply.Uint32(StatusNoEnt)
			return sunrpc.Success
		}
		s.promise(path, from)
		call.Reply.Uint32(StatusOK)
		call.Reply.Uint64(attr.Change)
		call.Reply.Uint64(attr.Size)
	case ProcCreate:
		dir, name := splitPath(path)
		dirAttr, err := s.fs.LookupPath(dir)
		if err != nil {
			call.Reply.Uint32(StatusNoEnt)
			return sunrpc.Success
		}
		if _, err := s.fs.Create(dirAttr.ID, name, 0o644, false); err != nil {
			call.Reply.Uint32(mapErr(err))
			return sunrpc.Success
		}
		s.breakCallbacks(path, from)
		s.breakCallbacks(dir, from)
		call.Reply.Uint32(StatusOK)
	case ProcRemove:
		dir, name := splitPath(path)
		dirAttr, err := s.fs.LookupPath(dir)
		if err != nil {
			call.Reply.Uint32(StatusNoEnt)
			return sunrpc.Success
		}
		if err := s.fs.Remove(dirAttr.ID, name); err != nil {
			call.Reply.Uint32(mapErr(err))
			return sunrpc.Success
		}
		s.breakCallbacks(path, from)
		s.breakCallbacks(dir, from)
		call.Reply.Uint32(StatusOK)
	case ProcLink:
		newPath, err := call.Args.String(1024)
		if err != nil {
			return sunrpc.GarbageArgs
		}
		oldAttr, err := s.fs.LookupPath(path)
		if err != nil {
			call.Reply.Uint32(StatusNoEnt)
			return sunrpc.Success
		}
		dir, name := splitPath(newPath)
		dirAttr, err := s.fs.LookupPath(dir)
		if err != nil {
			call.Reply.Uint32(StatusNoEnt)
			return sunrpc.Success
		}
		if _, err := s.fs.Link(dirAttr.ID, name, oldAttr.ID); err != nil {
			call.Reply.Uint32(mapErr(err))
			return sunrpc.Success
		}
		s.breakCallbacks(newPath, from)
		s.breakCallbacks(dir, from)
		call.Reply.Uint32(StatusOK)
	default:
		return sunrpc.ProcUnavail
	}
	return sunrpc.Success
}

func mapErr(err error) uint32 {
	switch {
	case errors.Is(err, memfs.ErrExist):
		return StatusExist
	case errors.Is(err, memfs.ErrNotExist):
		return StatusNoEnt
	case errors.Is(err, memfs.ErrNotDir):
		return StatusNotDir
	default:
		return StatusIOErr
	}
}

func splitPath(p string) (dir, name string) {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[:i], p[i+1:]
	}
	return "", p
}

// promise records that addr caches path.
func (s *Server) promise(path, addr string) {
	if addr == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	set, ok := s.callbacks[path]
	if !ok {
		set = make(map[string]bool)
		s.callbacks[path] = set
	}
	set[addr] = true
}

// breakCallbacks notifies every holder except the mutator.
func (s *Server) breakCallbacks(path, from string) {
	s.mu.Lock()
	var targets []string
	for addr := range s.callbacks[path] {
		if addr != from {
			targets = append(targets, addr)
		}
	}
	delete(s.callbacks, path)
	s.mu.Unlock()
	for _, addr := range targets {
		s.breakOne(addr, path)
	}
}

func (s *Server) breakOne(addr, path string) {
	s.mu.Lock()
	conn := s.cbConns[addr]
	s.mu.Unlock()
	if conn == nil {
		raw, err := s.dial(addr)
		if err != nil {
			return
		}
		conn = sunrpc.NewClient(s.clk, raw, sunrpc.NoneCred())
		s.mu.Lock()
		s.cbConns[addr] = conn
		s.mu.Unlock()
	}
	e := xdr.NewEncoder()
	e.String(path)
	conn.Call(CallbackProgram, CallbackVersion, ProcBreak, e.Bytes())
}

// Client is an AFS-like client caching, under callback promises, which paths
// exist.
type Client struct {
	clk *vclock.Clock
	rpc *sunrpc.Client
	srv *sunrpc.Server

	mu    sync.Mutex
	cache map[string]bool // paths known to exist; the server promised to say when that changes
}

// NewClient connects to the server over conn and serves callback breaks on
// cbListener. cbAddr must be the address the server can dial back
// (it is sent as the AUTH_SYS machine name).
func NewClient(clk *vclock.Clock, conn transport.Conn, cbListener transport.Listener, cbAddr string) *Client {
	c := &Client{
		clk:   clk,
		rpc:   sunrpc.NewClient(clk, conn, sunrpc.SysCred(cbAddr, 0, 0)),
		srv:   sunrpc.NewServer(clk),
		cache: make(map[string]bool),
	}
	c.srv.Register(CallbackProgram, CallbackVersion, c.dispatchBreak)
	c.srv.Serve(cbListener)
	return c
}

// Close shuts the client down.
func (c *Client) Close() {
	c.srv.Close()
	c.rpc.Close()
}

func (c *Client) dispatchBreak(call *sunrpc.Call) sunrpc.AcceptStat {
	path, err := call.Args.String(1024)
	if err != nil {
		return sunrpc.GarbageArgs
	}
	c.mu.Lock()
	delete(c.cache, path)
	c.mu.Unlock()
	return sunrpc.Success
}

func (c *Client) call(proc uint32, enc func(*xdr.Encoder)) (*xdr.Decoder, error) {
	e := xdr.NewEncoder()
	enc(e)
	return c.rpc.Call(Program, Version, proc, e.Bytes())
}

// Exists reports whether path exists, served from the callback-protected
// cache when possible.
func (c *Client) Exists(path string) (bool, error) {
	c.mu.Lock()
	cached := c.cache[path]
	c.mu.Unlock()
	if cached {
		return true, nil
	}
	d, err := c.call(ProcStat, func(e *xdr.Encoder) { e.String(path) })
	if err != nil {
		return false, err
	}
	st, err := d.Uint32()
	if err != nil {
		return false, err
	}
	switch st {
	case StatusOK:
		c.mu.Lock()
		c.cache[path] = true
		c.mu.Unlock()
		return true, nil
	case StatusNoEnt:
		// Negative entries are not callback-protected by the server (it
		// only promises on existing paths), so do not cache them.
		return false, nil
	default:
		return false, statusErr(st)
	}
}

// CreateFile creates an empty file.
func (c *Client) CreateFile(path string) error {
	return c.simpleOp(ProcCreate, path)
}

// Remove unlinks path.
func (c *Client) Remove(path string) error {
	err := c.simpleOp(ProcRemove, path)
	c.mu.Lock()
	delete(c.cache, path)
	c.mu.Unlock()
	return err
}

// Link hard-links oldPath to newPath.
func (c *Client) Link(oldPath, newPath string) error {
	d, err := c.call(ProcLink, func(e *xdr.Encoder) {
		e.String(oldPath)
		e.String(newPath)
	})
	if err != nil {
		return err
	}
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	if st == StatusOK {
		c.mu.Lock()
		delete(c.cache, newPath)
		c.mu.Unlock()
	}
	return statusErr(st)
}

// IsExist matches the EXIST error.
func (c *Client) IsExist(err error) bool { return errors.Is(err, ErrExist) }

func (c *Client) simpleOp(proc uint32, path string) error {
	d, err := c.call(proc, func(e *xdr.Encoder) { e.String(path) })
	if err != nil {
		return err
	}
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	return statusErr(st)
}
