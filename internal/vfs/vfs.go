// Package vfs is the minimal filesystem abstraction the storage service
// persists through: a FileSystem hands out Files, and everything above it
// (device images, generation manifests, transfer streams) is written via the
// durable helpers in this package instead of bare os calls.
//
// Two implementations exist: OS, a thin veneer over the operating system,
// and Mem, an in-memory fake that models *crash durability* — data written
// but never synced, and directory entries created or renamed but never
// followed by a directory sync, are lost when the test calls Crash(). That
// is exactly the window the atomic-write helpers must close, so the fake
// turns "did we fsync in the right places" from a code-review question into
// a failing test.
//
// The durability contract the helpers implement (and the fake enforces):
//
//  1. write the full content to a temporary file,
//  2. fsync the temporary file (its *bytes* are now durable),
//  3. rename it over the destination (atomic replacement),
//  4. fsync the parent directory (the *entry* is now durable).
//
// Skipping step 2 can surface an empty or torn file after a crash; skipping
// step 4 can surface the old name (or nothing). Either way a sidecar
// written "atomically" would not actually be there on restart.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is an open file: sequential reads and writes, and Sync, which makes
// the bytes written so far durable.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes written data to stable storage.
	Sync() error
}

// FileSystem is the minimal surface the storage service needs. Paths use
// the host convention (filepath); implementations must return errors
// satisfying errors.Is(err, fs.ErrNotExist) for missing files, so callers
// can distinguish "absent" from "present but unreadable".
type FileSystem interface {
	// Create creates or truncates name for writing.
	Create(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (File, error)
	// Remove deletes name.
	Remove(name string) error
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// SyncDir makes the directory's entries durable (the post-rename fsync
	// of the parent directory).
	SyncDir(dir string) error
}

// OS is the real filesystem.
type OS struct{}

// Create implements FileSystem.
func (OS) Create(name string) (File, error) { return os.Create(name) }

// Open implements FileSystem.
func (OS) Open(name string) (File, error) { return os.Open(name) }

// Remove implements FileSystem.
func (OS) Remove(name string) error { return os.Remove(name) }

// Rename implements FileSystem.
func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// SyncDir implements FileSystem: it opens the directory and fsyncs it,
// making renames and creates within it durable.
func (OS) SyncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReadFile reads the whole of name from fsys.
func ReadFile(fsys FileSystem, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// AtomicFile streams content to a temporary file and, on Commit, publishes
// it at its final path with full crash durability (fsync of both the bytes
// and the directory entry). Abandoning it without Commit leaves the
// destination untouched; call Abort to also clean up the temporary file.
// It exists so multi-gigabyte device images can be written atomically
// without ever being held in memory — callers hand it to nand.SaveImage as
// a plain io.Writer.
type AtomicFile struct {
	fsys      FileSystem
	f         File
	tmp, path string
	err       error
	done      bool
}

// NewAtomicFile begins an atomic write of path.
func NewAtomicFile(fsys FileSystem, path string) (*AtomicFile, error) {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return nil, err
	}
	return &AtomicFile{fsys: fsys, f: f, tmp: tmp, path: path}, nil
}

// Write implements io.Writer.
func (a *AtomicFile) Write(p []byte) (int, error) {
	if a.err != nil {
		return 0, a.err
	}
	n, err := a.f.Write(p)
	if err != nil {
		a.err = err
	}
	return n, err
}

// Commit makes the content durable and publishes it at the final path:
// fsync the temp file, rename it over the destination, fsync the parent
// directory. On any failure the destination is left as it was and the
// temporary file is removed.
func (a *AtomicFile) Commit() error {
	if a.done {
		return fmt.Errorf("vfs: AtomicFile for %s already finished", a.path)
	}
	a.done = true
	if a.err != nil {
		a.f.Close()
		a.fsys.Remove(a.tmp)
		return a.err
	}
	// The bytes must be durable BEFORE the rename publishes the name: a
	// crash between rename and a late fsync could surface a torn file
	// under the final path — the exact window atomicity is meant to close.
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		a.fsys.Remove(a.tmp)
		return fmt.Errorf("vfs: syncing %s: %w", a.tmp, err)
	}
	if err := a.f.Close(); err != nil {
		a.fsys.Remove(a.tmp)
		return fmt.Errorf("vfs: closing %s: %w", a.tmp, err)
	}
	if err := a.fsys.Rename(a.tmp, a.path); err != nil {
		a.fsys.Remove(a.tmp)
		return err
	}
	if err := a.fsys.SyncDir(filepath.Dir(a.path)); err != nil {
		return fmt.Errorf("vfs: syncing parent of %s: %w", a.path, err)
	}
	return nil
}

// Abort discards the write: the temporary file is removed and the
// destination is untouched. Abort after Commit is a no-op.
func (a *AtomicFile) Abort() {
	if a.done {
		return
	}
	a.done = true
	a.f.Close()
	a.fsys.Remove(a.tmp)
}

// WriteAtomic writes path with full crash durability: write streams the
// content into an AtomicFile, which is committed if write returns nil and
// aborted otherwise. After it returns nil, a crash at any later point
// surfaces the complete new content; a crash before it returns surfaces
// the complete old content (or absence). Device images are saved this way
// (write is the device's SaveImage), and so are sidecar files
// (WriteFileAtomic).
func WriteAtomic(fsys FileSystem, path string, write func(io.Writer) error) error {
	a, err := NewAtomicFile(fsys, path)
	if err != nil {
		return err
	}
	if err := write(a); err != nil {
		a.Abort()
		return err
	}
	return a.Commit()
}

// WriteFileAtomic writes b to path through WriteAtomic. This is the
// sidecar-file helper — a generation manifest must describe the image
// beside it after a crash, so its own persistence must not have a
// torn-write window.
func WriteFileAtomic(fsys FileSystem, path string, b []byte) error {
	return WriteAtomic(fsys, path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// IsNotExist reports whether err means the file is absent (as opposed to
// present but unreadable — corrupt, permission-denied, or IO-failed).
func IsNotExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist)
}
