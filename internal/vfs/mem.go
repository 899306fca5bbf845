package vfs

import (
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sync"
)

// Op names a filesystem operation for the Mem fault hook.
type Op string

// Operations the fault hook can intercept.
const (
	OpCreate  Op = "create"
	OpOpen    Op = "open"
	OpWrite   Op = "write"
	OpSync    Op = "sync"
	OpClose   Op = "close"
	OpRemove  Op = "remove"
	OpRename  Op = "rename"
	OpSyncDir Op = "syncdir"
)

// Mem is the in-memory FileSystem fake. Beyond behaving like a filesystem,
// it models the two durability gaps a real one has after a crash:
//
//   - file BYTES are durable only up to the last Sync on that file;
//   - directory ENTRIES (creates, renames, removes) are durable only once
//     the parent directory has been SyncDir'd.
//
// Crash() rolls the namespace back to exactly what a power loss would
// leave: the durable entry set, each file truncated to its synced length.
// Tests write through the same helpers production uses, crash, and assert
// on what survived.
//
// FailOp, when non-nil, is consulted before every operation and may return
// an error to inject a persistence failure (a full disk, an IO error) at a
// precise point. The zero value is not usable; call NewMem.
type Mem struct {
	mu sync.Mutex
	// files is the volatile namespace: what an uncrashed process observes.
	files map[string]*memFile
	// durable is the crash-surviving entry set: name -> file identity as of
	// the last SyncDir covering that name. File identities are shared with
	// files (a rename moves an identity; its synced bytes travel with it).
	durable map[string]*memFile

	// FailOp, when non-nil, may fail an operation before it happens.
	FailOp func(op Op, name string) error

	// writes/bytesWritten count Write calls and bytes across all files —
	// the accounting the allocation-bounds tests read.
	writes       int64
	bytesWritten int64
}

type memFile struct {
	data      []byte
	syncedLen int
}

// NewMem returns an empty in-memory filesystem.
func NewMem() *Mem {
	return &Mem{files: make(map[string]*memFile), durable: make(map[string]*memFile)}
}

func (m *Mem) fail(op Op, name string) error {
	if m.FailOp != nil {
		return m.FailOp(op, name)
	}
	return nil
}

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

// Create implements FileSystem.
func (m *Mem) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.fail(OpCreate, name); err != nil {
		return nil, err
	}
	f := m.files[name]
	if f == nil {
		f = &memFile{}
		m.files[name] = f
	} else {
		// Truncation is data loss the moment it happens: the old bytes are
		// gone from the volatile file, and the durable length cannot exceed
		// what the file now holds.
		f.data = f.data[:0]
		f.syncedLen = 0
	}
	return &memHandle{m: m, f: f, name: name, writable: true}, nil
}

// Open implements FileSystem.
func (m *Mem) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.fail(OpOpen, name); err != nil {
		return nil, err
	}
	f := m.files[name]
	if f == nil {
		return nil, notExist("open", name)
	}
	return &memHandle{m: m, f: f, name: name}, nil
}

// Remove implements FileSystem.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.fail(OpRemove, name); err != nil {
		return err
	}
	if m.files[name] == nil {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return nil
}

// Rename implements FileSystem. Like the syscall it is atomic in the
// volatile namespace; durability of the new entry waits for SyncDir.
func (m *Mem) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.fail(OpRename, oldname); err != nil {
		return err
	}
	f := m.files[oldname]
	if f == nil {
		return notExist("rename", oldname)
	}
	delete(m.files, oldname)
	m.files[newname] = f
	return nil
}

// SyncDir implements FileSystem: every entry in dir becomes durable as it
// currently stands — creates and renames into dir persist, removes and
// renames out of dir persist as absences.
func (m *Mem) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.fail(OpSyncDir, dir); err != nil {
		return err
	}
	for name := range m.durable {
		if filepath.Dir(name) == dir {
			delete(m.durable, name)
		}
	}
	for name, f := range m.files {
		if filepath.Dir(name) == dir {
			m.durable[name] = f
		}
	}
	return nil
}

// Crash simulates power loss: the namespace rolls back to the durable
// entry set and every file's bytes roll back to its last-synced length.
// Open handles remain usable (the process writing through them is "gone";
// tests just stop using them), and the filesystem continues to work.
func (m *Mem) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files = make(map[string]*memFile, len(m.durable))
	for name, f := range m.durable {
		f.data = f.data[:f.syncedLen:f.syncedLen]
		m.files[name] = f
	}
}

// Exists reports whether name is present in the volatile namespace.
func (m *Mem) Exists(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.files[name] != nil
}

// WriteCounts returns how many Write calls and payload bytes all handles
// have performed since construction.
func (m *Mem) WriteCounts() (writes, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writes, m.bytesWritten
}

// memHandle is one open descriptor: sequential writes append, sequential
// reads walk from the start of the file at open time.
type memHandle struct {
	m        *Mem
	f        *memFile
	name     string
	off      int
	writable bool
	closed   bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return 0, fmt.Errorf("vfs: write to closed file %s", h.name)
	}
	if !h.writable {
		return 0, fmt.Errorf("vfs: %s opened read-only", h.name)
	}
	if err := h.m.fail(OpWrite, h.name); err != nil {
		return 0, err
	}
	h.f.data = append(h.f.data, p...)
	h.m.writes++
	h.m.bytesWritten += int64(len(p))
	return len(p), nil
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return 0, fmt.Errorf("vfs: read of closed file %s", h.name)
	}
	if h.off >= len(h.f.data) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[h.off:])
	h.off += n
	return n, nil
}

// Len reports how many bytes are left to read, as bytes.Reader's does, so
// that a reader can size its buffer once.
func (h *memHandle) Len() int {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	return max(len(h.f.data)-h.off, 0)
}

func (h *memHandle) Sync() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return fmt.Errorf("vfs: sync of closed file %s", h.name)
	}
	if err := h.m.fail(OpSync, h.name); err != nil {
		return err
	}
	h.f.syncedLen = len(h.f.data)
	return nil
}

func (h *memHandle) Close() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return fmt.Errorf("vfs: double close of %s", h.name)
	}
	if err := h.m.fail(OpClose, h.name); err != nil {
		return err
	}
	h.closed = true
	return nil
}
