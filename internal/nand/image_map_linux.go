package nand

import (
	"io"
	"os"
	"syscall"
)

// mapImage maps the whole of f, which must stand at its first byte, private
// to this process, or returns nil when it cannot: f is not a regular file,
// is empty (the kernel refuses a zero-length mapping), or the kernel
// refuses for another reason. The mapping is writable but not populated:
// the decode's reads fault pages in from the page cache on every worker at
// once, while populating a writable private mapping would copy every page
// up front. A write takes a copy-on-write fault, one page of the mapping
// at a time, and never reaches the file.
func mapImage(f *os.File) []byte {
	if off, err := f.Seek(0, io.SeekCurrent); err != nil || off != 0 {
		return nil
	}
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() || fi.Size() == 0 || fi.Size() != int64(int(fi.Size())) {
		return nil
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(fi.Size()), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	return b
}

// unmapImage unmaps a mapping mapImage made. Munmap fails only on an
// address range that is not a mapping, which b, whole as mmap returned it,
// always is.
func unmapImage(b []byte) { _ = syscall.Munmap(b) }
