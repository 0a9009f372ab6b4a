// Package memfs is an in-memory POSIX-like filesystem used as the backing
// store of the NFS server: the substitute for the kernel server's local disk
// filesystem in the paper's testbed. It supports regular files, directories,
// hard links, symlinks, and the attribute semantics (size/mtime/ctime/link
// count/change counter) that NFSv3 and the consistency protocols observe.
package memfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Errors mirror the POSIX errno values the NFS layer maps to NFSv3 status
// codes.
var (
	ErrNotExist    = errors.New("memfs: no such file or directory")
	ErrExist       = errors.New("memfs: file exists")
	ErrNotDir      = errors.New("memfs: not a directory")
	ErrIsDir       = errors.New("memfs: is a directory")
	ErrNotEmpty    = errors.New("memfs: directory not empty")
	ErrStale       = errors.New("memfs: stale file id")
	ErrInvalid     = errors.New("memfs: invalid argument")
	ErrNameTooLong = errors.New("memfs: name too long")
)

// MaxName bounds a single path component.
const MaxName = 255

// FileType enumerates inode types.
type FileType int

// Inode types.
const (
	TypeFile FileType = iota + 1
	TypeDir
	TypeSymlink
)

// ID is a stable inode number. IDs are never reused, so a (FS generation,
// ID) pair behaves like an NFS file handle.
type ID uint64

// Attr is the attribute set exposed to the NFS layer.
type Attr struct {
	ID    ID
	Type  FileType
	Mode  uint32
	Nlink uint32
	UID   uint32
	GID   uint32
	Size  uint64
	// Change increments on every modification of data or metadata,
	// mirroring the attribute NFS clients use for cache revalidation.
	Change uint64
	Atime  time.Duration
	Mtime  time.Duration
	Ctime  time.Duration
}

type inode struct {
	id    ID
	typ   FileType
	mode  uint32
	uid   uint32
	gid   uint32
	nlink uint32

	change uint64
	atime  time.Duration
	mtime  time.Duration
	ctime  time.Duration

	data     []byte        // TypeFile
	children map[string]ID // TypeDir
	target   string        // TypeSymlink
	// verf is the verifier of the exclusive create that made a regular file
	// (CreateExclusive), 0 for any other.
	verf uint64
}

// FS is a thread-safe in-memory filesystem. Times come from the now function
// so virtual-time simulations get coherent timestamps.
type FS struct {
	now func() time.Duration

	mu     sync.Mutex
	nextID ID
	inodes map[ID]*inode
	rootID ID
}

// New creates a filesystem containing only a root directory. now supplies
// timestamps (e.g. a vclock.Clock's Now method).
func New(now func() time.Duration) *FS {
	fs := &FS{now: now, inodes: make(map[ID]*inode), nextID: 1}
	root := &inode{
		id:       1,
		typ:      TypeDir,
		mode:     0o755,
		nlink:    2,
		children: make(map[string]ID),
	}
	t := now()
	root.atime, root.mtime, root.ctime = t, t, t
	fs.inodes[1] = root
	fs.rootID = 1
	fs.nextID = 2
	return fs
}

// Root returns the root directory's ID.
func (fs *FS) Root() ID { return fs.rootID }

func (fs *FS) get(id ID) (*inode, error) {
	ino, ok := fs.inodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrStale, id)
	}
	return ino, nil
}

func (fs *FS) dir(id ID) (*inode, error) {
	ino, err := fs.get(id)
	if err != nil {
		return nil, err
	}
	if ino.typ != TypeDir {
		return nil, ErrNotDir
	}
	return ino, nil
}

func checkName(name string) error {
	if name == "" || name == "." || name == ".." {
		return ErrInvalid
	}
	if len(name) > MaxName {
		return ErrNameTooLong
	}
	if strings.ContainsRune(name, '/') {
		return ErrInvalid
	}
	return nil
}

func (fs *FS) touch(ino *inode, data, meta bool) {
	t := fs.now()
	ino.change++
	if data {
		ino.mtime = t
	}
	if meta {
		ino.ctime = t
	}
}

func (ino *inode) attr() Attr {
	return Attr{
		ID:     ino.id,
		Type:   ino.typ,
		Mode:   ino.mode,
		Nlink:  ino.nlink,
		UID:    ino.uid,
		GID:    ino.gid,
		Size:   ino.size(),
		Change: ino.change,
		Atime:  ino.atime,
		Mtime:  ino.mtime,
		Ctime:  ino.ctime,
	}
}

func (ino *inode) size() uint64 {
	switch ino.typ {
	case TypeFile:
		return uint64(len(ino.data))
	case TypeSymlink:
		return uint64(len(ino.target))
	default:
		return uint64(len(ino.children))
	}
}

// Stat returns the attributes of id.
func (fs *FS) Stat(id ID) (Attr, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.get(id)
	if err != nil {
		return Attr{}, err
	}
	return ino.attr(), nil
}

// SetAttr applies the non-nil fields: mode, uid, gid, size (truncate/extend),
// mtime. It returns the new attributes.
type SetAttr struct {
	Mode  *uint32
	UID   *uint32
	GID   *uint32
	Size  *uint64
	Mtime *time.Duration
}

// Apply changes attributes of id per sa.
func (fs *FS) Apply(id ID, sa SetAttr) (Attr, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.get(id)
	if err != nil {
		return Attr{}, err
	}
	if sa.Size != nil {
		if ino.typ != TypeFile {
			return Attr{}, ErrIsDir
		}
		n := *sa.Size
		if n <= uint64(len(ino.data)) {
			ino.data = ino.data[:n]
		} else {
			ino.data = append(ino.data, make([]byte, n-uint64(len(ino.data)))...)
		}
		fs.touch(ino, true, true)
	}
	if sa.Mode != nil {
		ino.mode = *sa.Mode
		fs.touch(ino, false, true)
	}
	if sa.UID != nil {
		ino.uid = *sa.UID
		fs.touch(ino, false, true)
	}
	if sa.GID != nil {
		ino.gid = *sa.GID
		fs.touch(ino, false, true)
	}
	if sa.Mtime != nil {
		ino.mtime = *sa.Mtime
		fs.touch(ino, false, true)
	}
	return ino.attr(), nil
}

// Lookup resolves name within directory dir.
func (fs *FS) Lookup(dir ID, name string) (Attr, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.dir(dir)
	if err != nil {
		return Attr{}, err
	}
	if name == "." {
		return d.attr(), nil
	}
	id, ok := d.children[name]
	if !ok {
		return Attr{}, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	ino, err := fs.get(id)
	if err != nil {
		return Attr{}, err
	}
	return ino.attr(), nil
}

// Create makes a regular file under dir. If exclusive is set and the name
// exists, it fails with ErrExist; otherwise an existing regular file is
// truncated (per NFS CREATE UNCHECKED semantics).
func (fs *FS) Create(dir ID, name string, mode uint32, exclusive bool) (Attr, error) {
	if err := checkName(name); err != nil {
		return Attr{}, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.dir(dir)
	if err != nil {
		return Attr{}, err
	}
	if existing, ok := d.children[name]; ok {
		if exclusive {
			return Attr{}, fmt.Errorf("%w: %s", ErrExist, name)
		}
		ino, err := fs.get(existing)
		if err != nil {
			return Attr{}, err
		}
		if ino.typ != TypeFile {
			return Attr{}, ErrIsDir
		}
		ino.data = ino.data[:0]
		fs.touch(ino, true, true)
		return ino.attr(), nil
	}
	ino := fs.newInode(TypeFile, mode)
	d.children[name] = ino.id
	fs.touch(d, true, true)
	return ino.attr(), nil
}

// CreateExclusive makes a regular file under dir as RFC 1813's exclusive
// CREATE does: the file keeps verf, and a create of the same name with the
// same verifier finds the file it made and succeeds again, as it stands, so a
// retransmitted create is not turned into EEXIST by its own first run. Any
// other existing name fails with ErrExist. A zero verifier matches nothing.
func (fs *FS) CreateExclusive(dir ID, name string, mode uint32, verf uint64) (Attr, error) {
	if err := checkName(name); err != nil {
		return Attr{}, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.dir(dir)
	if err != nil {
		return Attr{}, err
	}
	if existing, ok := d.children[name]; ok {
		if ino, err := fs.get(existing); err == nil && ino.typ == TypeFile && verf != 0 && ino.verf == verf {
			return ino.attr(), nil
		}
		return Attr{}, fmt.Errorf("%w: %s", ErrExist, name)
	}
	ino := fs.newInode(TypeFile, mode)
	ino.verf = verf
	d.children[name] = ino.id
	fs.touch(d, true, true)
	return ino.attr(), nil
}

// Mkdir makes a directory under dir.
func (fs *FS) Mkdir(dir ID, name string, mode uint32) (Attr, error) {
	if err := checkName(name); err != nil {
		return Attr{}, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.dir(dir)
	if err != nil {
		return Attr{}, err
	}
	if _, ok := d.children[name]; ok {
		return Attr{}, fmt.Errorf("%w: %s", ErrExist, name)
	}
	ino := fs.newInode(TypeDir, mode)
	ino.children = make(map[string]ID)
	ino.nlink = 2
	d.children[name] = ino.id
	d.nlink++
	fs.touch(d, true, true)
	return ino.attr(), nil
}

// Symlink makes a symbolic link under dir pointing at target.
func (fs *FS) Symlink(dir ID, name, target string) (Attr, error) {
	if err := checkName(name); err != nil {
		return Attr{}, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.dir(dir)
	if err != nil {
		return Attr{}, err
	}
	if _, ok := d.children[name]; ok {
		return Attr{}, fmt.Errorf("%w: %s", ErrExist, name)
	}
	ino := fs.newInode(TypeSymlink, 0o777)
	ino.target = target
	d.children[name] = ino.id
	fs.touch(d, true, true)
	return ino.attr(), nil
}

// Readlink returns the target of a symlink.
func (fs *FS) Readlink(id ID) (string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.get(id)
	if err != nil {
		return "", err
	}
	if ino.typ != TypeSymlink {
		return "", ErrInvalid
	}
	return ino.target, nil
}

// Link creates a hard link dir/name -> target. This is the primitive the
// lock benchmark builds mutual exclusion on: LINK fails atomically with
// ErrExist if the name is taken.
func (fs *FS) Link(dir ID, name string, target ID) (Attr, error) {
	if err := checkName(name); err != nil {
		return Attr{}, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.dir(dir)
	if err != nil {
		return Attr{}, err
	}
	t, err := fs.get(target)
	if err != nil {
		return Attr{}, err
	}
	if t.typ == TypeDir {
		return Attr{}, ErrIsDir
	}
	if _, ok := d.children[name]; ok {
		return Attr{}, fmt.Errorf("%w: %s", ErrExist, name)
	}
	d.children[name] = target
	t.nlink++
	fs.touch(t, false, true)
	fs.touch(d, true, true)
	return t.attr(), nil
}

// Remove unlinks a non-directory entry.
func (fs *FS) Remove(dir ID, name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.dir(dir)
	if err != nil {
		return err
	}
	id, ok := d.children[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	ino, err := fs.get(id)
	if err != nil {
		return err
	}
	if ino.typ == TypeDir {
		return ErrIsDir
	}
	delete(d.children, name)
	ino.nlink--
	fs.touch(ino, false, true)
	fs.touch(d, true, true)
	if ino.nlink == 0 {
		delete(fs.inodes, id)
	}
	return nil
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(dir ID, name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.dir(dir)
	if err != nil {
		return err
	}
	id, ok := d.children[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	ino, err := fs.get(id)
	if err != nil {
		return err
	}
	if ino.typ != TypeDir {
		return ErrNotDir
	}
	if len(ino.children) > 0 {
		return ErrNotEmpty
	}
	delete(d.children, name)
	d.nlink--
	delete(fs.inodes, id)
	fs.touch(d, true, true)
	return nil
}

// Rename moves fromDir/fromName to toDir/toName, replacing a compatible
// existing target per POSIX.
func (fs *FS) Rename(fromDir ID, fromName string, toDir ID, toName string) error {
	if err := checkName(toName); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fd, err := fs.dir(fromDir)
	if err != nil {
		return err
	}
	td, err := fs.dir(toDir)
	if err != nil {
		return err
	}
	id, ok := fd.children[fromName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, fromName)
	}
	src, err := fs.get(id)
	if err != nil {
		return err
	}
	if existingID, ok := td.children[toName]; ok {
		if existingID == id {
			return nil
		}
		existing, err := fs.get(existingID)
		if err != nil {
			return err
		}
		switch {
		case existing.typ == TypeDir && src.typ != TypeDir:
			return ErrIsDir
		case existing.typ != TypeDir && src.typ == TypeDir:
			return ErrNotDir
		case existing.typ == TypeDir && len(existing.children) > 0:
			return ErrNotEmpty
		}
		delete(td.children, toName)
		if existing.typ == TypeDir {
			td.nlink--
			delete(fs.inodes, existingID)
		} else {
			existing.nlink--
			if existing.nlink == 0 {
				delete(fs.inodes, existingID)
			}
		}
	}
	delete(fd.children, fromName)
	td.children[toName] = id
	if src.typ == TypeDir && fromDir != toDir {
		fd.nlink--
		td.nlink++
	}
	fs.touch(fd, true, true)
	if fromDir != toDir {
		fs.touch(td, true, true)
	}
	fs.touch(src, false, true)
	return nil
}

// ReadAt reads up to len(p) bytes at off, returning the count and whether
// the read reached end of file.
func (fs *FS) ReadAt(id ID, p []byte, off uint64) (n int, eof bool, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.get(id)
	if err != nil {
		return 0, false, err
	}
	if ino.typ != TypeFile {
		return 0, false, ErrIsDir
	}
	ino.atime = fs.now()
	if off >= uint64(len(ino.data)) {
		return 0, true, nil
	}
	n = copy(p, ino.data[off:])
	eof = off+uint64(n) >= uint64(len(ino.data))
	return n, eof, nil
}

// WriteAt writes p at off, extending the file as needed, and returns the new
// attributes.
func (fs *FS) WriteAt(id ID, p []byte, off uint64) (Attr, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.get(id)
	if err != nil {
		return Attr{}, err
	}
	if ino.typ != TypeFile {
		return Attr{}, ErrIsDir
	}
	end := off + uint64(len(p))
	if end > uint64(len(ino.data)) {
		ino.data = append(ino.data, make([]byte, end-uint64(len(ino.data)))...)
	}
	copy(ino.data[off:], p)
	fs.touch(ino, true, true)
	return ino.attr(), nil
}

// Dirent is one directory entry.
type Dirent struct {
	Name string
	ID   ID
}

// ReadDir lists the entries of dir in lexical order.
func (fs *FS) ReadDir(dir ID) ([]Dirent, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.dir(dir)
	if err != nil {
		return nil, err
	}
	out := make([]Dirent, 0, len(d.children))
	for name, id := range d.children {
		out = append(out, Dirent{Name: name, ID: id})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Stats summarizes filesystem usage.
type Stats struct {
	Inodes     int
	TotalBytes uint64
}

// Stats reports aggregate usage.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s := Stats{Inodes: len(fs.inodes)}
	for _, ino := range fs.inodes {
		if ino.typ == TypeFile {
			s.TotalBytes += uint64(len(ino.data))
		}
	}
	return s
}

func (fs *FS) newInode(typ FileType, mode uint32) *inode {
	ino := &inode{
		id:    fs.nextID,
		typ:   typ,
		mode:  mode,
		nlink: 1,
	}
	fs.nextID++
	t := fs.now()
	ino.atime, ino.mtime, ino.ctime = t, t, t
	ino.change = 1
	fs.inodes[ino.id] = ino
	return ino
}

// MkdirAll creates a directory path like "a/b/c" under root, returning the
// final directory's ID. Existing directories are reused.
func (fs *FS) MkdirAll(path string) (ID, error) {
	cur := fs.Root()
	for _, part := range strings.Split(path, "/") {
		if part == "" {
			continue
		}
		attr, err := fs.Lookup(cur, part)
		switch {
		case err == nil:
			if attr.Type != TypeDir {
				return 0, ErrNotDir
			}
			cur = attr.ID
		case errors.Is(err, ErrNotExist):
			attr, err = fs.Mkdir(cur, part, 0o755)
			if err != nil {
				return 0, err
			}
			cur = attr.ID
		default:
			return 0, err
		}
	}
	return cur, nil
}

// WriteFile creates (or truncates) the file at path under root with the given
// contents, creating parent directories as needed.
func (fs *FS) WriteFile(path string, data []byte) (ID, error) {
	dir := pathDir(path)
	name := pathBase(path)
	dirID, err := fs.MkdirAll(dir)
	if err != nil {
		return 0, err
	}
	attr, err := fs.Create(dirID, name, 0o644, false)
	if err != nil {
		return 0, err
	}
	if len(data) > 0 {
		if _, err := fs.WriteAt(attr.ID, data, 0); err != nil {
			return 0, err
		}
	}
	return attr.ID, nil
}

// LookupPath resolves a slash-separated path from the root.
func (fs *FS) LookupPath(path string) (Attr, error) {
	cur := fs.Root()
	attr, err := fs.Stat(cur)
	if err != nil {
		return Attr{}, err
	}
	for _, part := range strings.Split(path, "/") {
		if part == "" {
			continue
		}
		attr, err = fs.Lookup(cur, part)
		if err != nil {
			return Attr{}, err
		}
		cur = attr.ID
	}
	return attr, nil
}

func pathDir(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[:i]
	}
	return ""
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
