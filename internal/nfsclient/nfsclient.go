// Package nfsclient emulates a kernel NFSv3 client: the component the paper
// leaves unmodified on every compute node. It reproduces the caching
// behaviours that generate the wide-area traffic GVFS filters:
//
//   - an attribute cache with an adaptive timeout between AttrMin and
//     AttrMax (Linux acregmin/acregmax), or disabled entirely (noac);
//   - a lookup (dnlc) cache validated against directory attributes;
//   - a page/buffer cache for file data, invalidated when revalidation
//     observes a changed mtime;
//   - close-to-open consistency: revalidation on open, flush of dirty
//     pages on close;
//   - write-back caching of writes with block-granularity flushing.
//
// The client addresses files by slash-separated paths below the mount root
// and issues NFSv3 RPCs through an nfscall.Conn, which may lead to a real
// NFS server or to a GVFS proxy client — the kernel client cannot tell.
package nfsclient

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/nfs3"
	"repro/internal/nfscall"
	"repro/internal/vclock"
)

// Options configure the emulated kernel client's mount.
type Options struct {
	// AttrMin and AttrMax bound the attribute cache timeout. Zero values
	// default to the Linux defaults (3s, 60s). Setting both to the same
	// value gives the fixed revalidation period used in the paper's
	// experiments (e.g. 30 s).
	AttrMin time.Duration
	AttrMax time.Duration
	// NoAC disables the attribute and lookup caches entirely (mount -o
	// noac), the paper's NFS-noac configuration and the base for GVFS's
	// strong-consistency sessions (GVFS2).
	NoAC bool
	// NoCTO disables close-to-open revalidation on open.
	NoCTO bool
	// BlockSize is the rsize/wsize used for READ and WRITE RPCs. Defaults
	// to 32 KiB, the paper's configuration.
	BlockSize int
	// CacheBytes caps the data cache; LRU eviction applies. Defaults to
	// 128 MiB (the VM memory in the testbed, roughly).
	CacheBytes int64
	// WriteThrough makes Write issue RPCs immediately instead of buffering
	// dirty blocks until Close/Sync.
	WriteThrough bool
	// UID and GID are the local identity stamped on created files (the
	// identity a GVFS proxy's cross-domain mapping translates).
	UID uint32
	GID uint32
}

func (o Options) withDefaults() Options {
	if o.AttrMin == 0 {
		o.AttrMin = 3 * time.Second
	}
	if o.AttrMax == 0 {
		o.AttrMax = 60 * time.Second
	}
	if o.AttrMax < o.AttrMin {
		o.AttrMax = o.AttrMin
	}
	if o.BlockSize == 0 {
		o.BlockSize = 32 * 1024
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 128 << 20
	}
	return o
}

// Client is one mounted NFS filesystem.
type Client struct {
	clk  *vclock.Clock
	conn *nfscall.Conn
	root nfs3.FH
	opts Options

	mu    sync.Mutex
	attrs map[string]*attrEntry // FH key -> cached attributes
	dnlc  map[string]dnlcEntry  // dirFH key + "\x00" + name -> handle
	files map[string]*fileCache // FH key -> data cache
	lru   *blockLRU
}

type attrEntry struct {
	attr    nfs3.Fattr
	fh      nfs3.FH
	fetched time.Duration
	timeout time.Duration
}

type dnlcEntry struct {
	fh      nfs3.FH
	fetched time.Duration
	// negative caches a NOENT result (a negative dentry), valid like a
	// positive entry while the directory's attributes are fresh.
	negative bool
}

type fileCache struct {
	mtime  nfs3.Time
	size   uint64
	blocks map[uint64][]byte
	dirty  map[uint64]bool
}

// New mounts the filesystem rooted at root over conn.
func New(clk *vclock.Clock, conn *nfscall.Conn, root nfs3.FH, opts Options) *Client {
	return &Client{
		clk:   clk,
		conn:  conn,
		root:  root,
		opts:  opts.withDefaults(),
		attrs: make(map[string]*attrEntry),
		dnlc:  make(map[string]dnlcEntry),
		files: make(map[string]*fileCache),
		lru:   newBlockLRU(),
	}
}

// Conn exposes the underlying NFS connection (for RPC counters).
func (c *Client) Conn() *nfscall.Conn { return c.conn }

// Root returns the mount's root handle.
func (c *Client) Root() nfs3.FH { return c.root }

// nfsErr converts a non-OK status into an error.
func nfsErr(proc uint32, st nfs3.Status) error {
	if st == nfs3.OK {
		return nil
	}
	return &nfs3.Error{Status: st, Proc: proc}
}

// --- attribute cache ---------------------------------------------------

// cacheAttrs installs freshly observed attributes, detecting changes that
// invalidate the data and lookup caches.
func (c *Client) cacheAttrs(fh nfs3.FH, attr nfs3.Fattr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cacheAttrsLocked(fh, attr)
}

func (c *Client) cacheAttrsLocked(fh nfs3.FH, attr nfs3.Fattr) {
	key := fh.Key()
	now := c.clk.Now()
	prev, had := c.attrs[key]
	timeout := c.opts.AttrMin
	if had {
		if prev.attr.Same(&attr) {
			// Unchanged since last check: widen the window (Linux doubles
			// the timeout up to acregmax).
			timeout = prev.timeout * 2
			if timeout > c.opts.AttrMax {
				timeout = c.opts.AttrMax
			}
		}
		if !prev.attr.Same(&attr) {
			c.invalidateObjectLocked(fh, attr)
		}
	}
	if c.opts.NoAC {
		timeout = 0
	}
	c.attrs[key] = &attrEntry{attr: attr, fh: fh, fetched: now, timeout: timeout}
}

// invalidateObjectLocked reacts to an observed modification: file data is
// dropped (unless we caused it ourselves via Write, which updates mtime
// before this runs), and a directory's lookup entries are discarded.
func (c *Client) invalidateObjectLocked(fh nfs3.FH, attr nfs3.Fattr) {
	key := fh.Key()
	if attr.Type == nfs3.TypeDir {
		prefix := key + "\x00"
		for k := range c.dnlc {
			if len(k) > len(prefix) && k[:len(prefix)] == prefix {
				delete(c.dnlc, k)
			}
		}
		return
	}
	if fc, ok := c.files[key]; ok && fc.mtime != attr.Mtime {
		c.dropCleanBlocksLocked(key, fc)
		fc.mtime = attr.Mtime
		fc.size = attr.Size
	}
}

func (c *Client) dropCleanBlocksLocked(key string, fc *fileCache) {
	for bn := range fc.blocks {
		if !fc.dirty[bn] {
			c.lru.remove(key, bn, len(fc.blocks[bn]))
			delete(fc.blocks, bn)
		}
	}
}

// getattr returns attributes for fh, from cache when fresh, via GETATTR
// otherwise. force bypasses the cache (close-to-open).
func (c *Client) getattr(fh nfs3.FH, force bool) (nfs3.Fattr, error) {
	key := fh.Key()
	if !force && !c.opts.NoAC {
		c.mu.Lock()
		if ent, ok := c.attrs[key]; ok && c.clk.Now()-ent.fetched < ent.timeout {
			attr := ent.attr
			c.mu.Unlock()
			return attr, nil
		}
		c.mu.Unlock()
	}
	res, err := c.conn.Getattr(fh)
	if err != nil {
		return nfs3.Fattr{}, err
	}
	if res.Status != nfs3.OK {
		if res.Status == nfs3.ErrStale {
			c.forgetLocked(fh)
		}
		return nfs3.Fattr{}, nfsErr(nfs3.ProcGetattr, res.Status)
	}
	c.cacheAttrs(fh, res.Attr)
	return res.Attr, nil
}

func (c *Client) forgetLocked(fh nfs3.FH) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.attrs, fh.Key())
	delete(c.files, fh.Key())
}

// --- lookup cache -------------------------------------------------------

func dnlcKey(dir nfs3.FH, name string) string { return dir.Key() + "\x00" + name }

// errNegativeDentry is the error returned for a cached NOENT.
func errNegativeDentry() error {
	return &nfs3.Error{Status: nfs3.ErrNoEnt, Proc: nfs3.ProcLookup}
}

// lookup resolves one component, using the dnlc (including negative
// dentries, as the Linux client caches) when permitted.
func (c *Client) lookup(dir nfs3.FH, name string) (nfs3.FH, error) {
	key := dnlcKey(dir, name)
	if !c.opts.NoAC {
		c.mu.Lock()
		if ent, ok := c.dnlc[key]; ok {
			// The entry is valid while the directory's attribute entry is
			// fresh; directory changes invalidate it via cacheAttrs.
			if dent, ok2 := c.attrs[dir.Key()]; ok2 && c.clk.Now()-dent.fetched < dent.timeout {
				c.mu.Unlock()
				if ent.negative {
					return nfs3.FH{}, errNegativeDentry()
				}
				return ent.fh, nil
			}
		}
		c.mu.Unlock()
		// Revalidate the directory; a fresh unchanged directory revives the
		// dnlc entry.
		if _, err := c.getattr(dir, false); err == nil {
			c.mu.Lock()
			if ent, ok := c.dnlc[key]; ok {
				c.mu.Unlock()
				if ent.negative {
					return nfs3.FH{}, errNegativeDentry()
				}
				return ent.fh, nil
			}
			c.mu.Unlock()
		}
	}
	if c.opts.NoAC {
		// Without an attribute cache every path-walk component is
		// revalidated with its own GETATTR, as a noac Linux mount does.
		if _, err := c.getattr(dir, false); err != nil {
			return nfs3.FH{}, err
		}
	}
	res, err := c.conn.Lookup(dir, name)
	if err != nil {
		return nfs3.FH{}, err
	}
	if res.DirAttr.Present {
		c.cacheAttrs(dir, res.DirAttr.Attr)
	}
	if res.Status != nfs3.OK {
		if res.Status == nfs3.ErrNoEnt && !c.opts.NoAC {
			c.mu.Lock()
			c.dnlc[key] = dnlcEntry{negative: true, fetched: c.clk.Now()}
			c.mu.Unlock()
		}
		return nfs3.FH{}, nfsErr(nfs3.ProcLookup, res.Status)
	}
	if res.Attr.Present {
		c.cacheAttrs(res.FH, res.Attr.Attr)
	}
	c.mu.Lock()
	c.dnlc[key] = dnlcEntry{fh: res.FH, fetched: c.clk.Now()}
	c.mu.Unlock()
	return res.FH, nil
}

// resolve walks path from the root.
func (c *Client) resolve(path string) (nfs3.FH, error) {
	fh := c.root
	for _, part := range splitPath(path) {
		next, err := c.lookup(fh, part)
		if err != nil {
			return nfs3.FH{}, fmt.Errorf("resolve %q: %w", path, err)
		}
		fh = next
	}
	return fh, nil
}

// resolveDir walks to the parent of path and returns (parentFH, baseName).
func (c *Client) resolveDir(path string) (nfs3.FH, string, error) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return nfs3.FH{}, "", fmt.Errorf("nfsclient: empty path")
	}
	fh := c.root
	for _, part := range parts[:len(parts)-1] {
		next, err := c.lookup(fh, part)
		if err != nil {
			return nfs3.FH{}, "", fmt.Errorf("resolve %q: %w", path, err)
		}
		fh = next
	}
	return fh, parts[len(parts)-1], nil
}

func splitPath(p string) []string {
	var parts []string
	start := 0
	for i := 0; i <= len(p); i++ {
		if i == len(p) || p[i] == '/' {
			if i > start {
				parts = append(parts, p[start:i])
			}
			start = i + 1
		}
	}
	return parts
}

// --- public namespace operations ----------------------------------------

// Stat returns the attributes at path, honouring the attribute cache.
func (c *Client) Stat(path string) (nfs3.Fattr, error) {
	fh, err := c.resolve(path)
	if err != nil {
		return nfs3.Fattr{}, err
	}
	return c.getattr(fh, false)
}

// Access asks the server which of the requested permission bits (nfs3.Access*)
// are granted at path, returning the granted subset. Like a noac Linux mount,
// the check always issues the ACCESS RPC — the kernel cannot evaluate server-
// side policy itself — which is exactly the per-call metadata tax the proxy's
// local ACCESS fast path absorbs.
func (c *Client) Access(path string, mask uint32) (uint32, error) {
	fh, err := c.resolve(path)
	if err != nil {
		return 0, err
	}
	res, err := c.conn.Access(fh, mask)
	if err != nil {
		return 0, err
	}
	if res.Attr.Present {
		c.cacheAttrs(fh, res.Attr.Attr)
	}
	if res.Status != nfs3.OK {
		return 0, nfsErr(nfs3.ProcAccess, res.Status)
	}
	return res.Access, nil
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string, mode uint32) error {
	dir, name, err := c.resolveDir(path)
	if err != nil {
		return err
	}
	res, err := c.conn.Mkdir(dir, name, mode)
	if err != nil {
		return err
	}
	c.applyWcc(dir, res.DirWcc)
	if res.Status == nfs3.OK && res.FHFollows {
		c.rememberNewEntry(dir, name, res.FH, res.Attr)
	}
	return nfsErr(nfs3.ProcMkdir, res.Status)
}

// Remove unlinks the file at path.
func (c *Client) Remove(path string) error {
	dir, name, err := c.resolveDir(path)
	if err != nil {
		return err
	}
	res, err := c.conn.Remove(dir, name)
	if err != nil {
		return err
	}
	c.applyWcc(dir, res.Wcc)
	c.mu.Lock()
	if res.Status == nfs3.OK && !c.opts.NoAC {
		// The unlinking client knows the name is gone: a negative dentry
		// (this immediate self-knowledge is what lets a lock's previous
		// owner re-acquire it ahead of clients with stale views).
		c.dnlc[dnlcKey(dir, name)] = dnlcEntry{negative: true, fetched: c.clk.Now()}
	} else {
		delete(c.dnlc, dnlcKey(dir, name))
	}
	c.mu.Unlock()
	return nfsErr(nfs3.ProcRemove, res.Status)
}

// Rmdir removes the directory at path.
func (c *Client) Rmdir(path string) error {
	dir, name, err := c.resolveDir(path)
	if err != nil {
		return err
	}
	res, err := c.conn.Rmdir(dir, name)
	if err != nil {
		return err
	}
	c.applyWcc(dir, res.Wcc)
	c.mu.Lock()
	delete(c.dnlc, dnlcKey(dir, name))
	c.mu.Unlock()
	return nfsErr(nfs3.ProcRmdir, res.Status)
}

// Rename moves from -> to (both paths).
func (c *Client) Rename(from, to string) error {
	fromDir, fromName, err := c.resolveDir(from)
	if err != nil {
		return err
	}
	toDir, toName, err := c.resolveDir(to)
	if err != nil {
		return err
	}
	res, err := c.conn.Rename(fromDir, fromName, toDir, toName)
	if err != nil {
		return err
	}
	c.applyWcc(fromDir, res.FromWcc)
	c.applyWcc(toDir, res.ToWcc)
	c.mu.Lock()
	delete(c.dnlc, dnlcKey(fromDir, fromName))
	delete(c.dnlc, dnlcKey(toDir, toName))
	c.mu.Unlock()
	return nfsErr(nfs3.ProcRename, res.Status)
}

// Link creates a hard link at newPath to the file at oldPath. The EXIST
// failure is atomic at the server, which makes this the mutual-exclusion
// primitive of the lock workload.
func (c *Client) Link(oldPath, newPath string) error {
	fh, err := c.resolve(oldPath)
	if err != nil {
		return err
	}
	dir, name, err := c.resolveDir(newPath)
	if err != nil {
		return err
	}
	res, err := c.conn.Link(fh, dir, name)
	if err != nil {
		return err
	}
	c.applyWcc(dir, res.LinkWcc)
	if res.Attr.Present {
		c.cacheAttrs(fh, res.Attr.Attr)
	}
	if res.Status == nfs3.OK {
		c.mu.Lock()
		c.dnlc[dnlcKey(dir, name)] = dnlcEntry{fh: fh, fetched: c.clk.Now()}
		c.mu.Unlock()
	}
	return nfsErr(nfs3.ProcLink, res.Status)
}

// Symlink creates a symbolic link.
func (c *Client) Symlink(target, linkPath string) error {
	dir, name, err := c.resolveDir(linkPath)
	if err != nil {
		return err
	}
	res, err := c.conn.Symlink(dir, name, target)
	if err != nil {
		return err
	}
	c.applyWcc(dir, res.DirWcc)
	return nfsErr(nfs3.ProcSymlink, res.Status)
}

// Readlink reads a symlink's target.
func (c *Client) Readlink(path string) (string, error) {
	fh, err := c.resolve(path)
	if err != nil {
		return "", err
	}
	res, err := c.conn.Readlink(fh)
	if err != nil {
		return "", err
	}
	return res.Path, nfsErr(nfs3.ProcReadlink, res.Status)
}

// ReadDir lists names in the directory at path.
func (c *Client) ReadDir(path string) ([]string, error) {
	fh, err := c.resolve(path)
	if err != nil {
		return nil, err
	}
	var names []string
	var cookie, verf uint64
	for {
		res, err := c.conn.Readdir(fh, cookie, verf, 4096)
		if err != nil {
			return nil, err
		}
		if res.Status != nfs3.OK {
			return nil, nfsErr(nfs3.ProcReaddir, res.Status)
		}
		if res.DirAttr.Present {
			c.cacheAttrs(fh, res.DirAttr.Attr)
		}
		for _, ent := range res.Entries {
			names = append(names, ent.Name)
			cookie = ent.Cookie
		}
		verf = res.CookieVerf
		if res.EOF {
			return names, nil
		}
	}
}

// applyWcc folds post-operation attributes into the cache.
func (c *Client) applyWcc(fh nfs3.FH, wcc nfs3.WccData) {
	if wcc.After.Present {
		c.cacheAttrs(fh, wcc.After.Attr)
	}
}

func (c *Client) rememberNewEntry(dir nfs3.FH, name string, fh nfs3.FH, attr nfs3.PostOpAttr) {
	if attr.Present {
		c.cacheAttrs(fh, attr.Attr)
	}
	c.mu.Lock()
	c.dnlc[dnlcKey(dir, name)] = dnlcEntry{fh: fh, fetched: c.clk.Now()}
	c.mu.Unlock()
}
