package main

import (
	"io/fs"
	"path/filepath"
	"sync/atomic"
	"time"

	"optimatch/internal/storefs"
)

// countFS wraps a storefs.FS and counts what the store does to the
// directory: writes and bytes (and how many of them went to snapshot
// publication rather than the WAL), fsyncs and the time spent in them, and
// renames. Installed with store.WithFS, it feeds write_amp and the
// storefs.* metrics without touching internal/store.
type countFS struct {
	inner storefs.FS

	writes, writeBytes      atomic.Int64
	walBytes, snapshotBytes atomic.Int64
	syncs, syncNanos        atomic.Int64
	renames                 atomic.Int64
}

// fsCounts is a point-in-time copy of the counters.
type fsCounts struct {
	Writes, WriteBytes int64
	SnapshotBytes      int64
	Syncs, SyncNanos   int64
	Renames            int64
}

func newCountFS() *countFS { return &countFS{inner: storefs.OS{}} }

func (c *countFS) snapshot() fsCounts {
	return fsCounts{
		Writes: c.writes.Load(), WriteBytes: c.writeBytes.Load(),
		SnapshotBytes: c.snapshotBytes.Load(),
		Syncs:         c.syncs.Load(), SyncNanos: c.syncNanos.Load(),
		Renames: c.renames.Load(),
	}
}

// sub returns the counts accumulated since an earlier snapshot.
func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{
		Writes: a.Writes - b.Writes, WriteBytes: a.WriteBytes - b.WriteBytes,
		SnapshotBytes: a.SnapshotBytes - b.SnapshotBytes,
		Syncs:         a.Syncs - b.Syncs, SyncNanos: a.SyncNanos - b.SyncNanos,
		Renames: a.Renames - b.Renames,
	}
}

func (c *countFS) wrap(f storefs.File, err error) (storefs.File, error) {
	if err != nil {
		return nil, err
	}
	// The store appends to exactly one file named wal.log; every other
	// handle it writes through is a snapshot or WAL-reset temp file.
	return &countFile{File: f, fs: c, wal: filepath.Base(f.Name()) == "wal.log"}, nil
}

func (c *countFS) MkdirAll(path string, perm fs.FileMode) error { return c.inner.MkdirAll(path, perm) }
func (c *countFS) Open(name string) (storefs.File, error)       { return c.wrap(c.inner.Open(name)) }
func (c *countFS) OpenFile(name string, flag int, perm fs.FileMode) (storefs.File, error) {
	return c.wrap(c.inner.OpenFile(name, flag, perm))
}
func (c *countFS) CreateTemp(dir, pattern string) (storefs.File, error) {
	return c.wrap(c.inner.CreateTemp(dir, pattern))
}
func (c *countFS) ReadFile(name string) ([]byte, error)       { return c.inner.ReadFile(name) }
func (c *countFS) ReadDir(name string) ([]fs.DirEntry, error) { return c.inner.ReadDir(name) }
func (c *countFS) Rename(oldpath, newpath string) error {
	c.renames.Add(1)
	return c.inner.Rename(oldpath, newpath)
}
func (c *countFS) Remove(name string) error               { return c.inner.Remove(name) }
func (c *countFS) Truncate(name string, size int64) error { return c.inner.Truncate(name, size) }

type countFile struct {
	storefs.File
	fs  *countFS
	wal bool
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(int64(n))
	if !f.wal {
		f.fs.snapshotBytes.Add(int64(n))
	}
	return n, err
}

func (f *countFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.syncNanos.Add(int64(time.Since(start)))
	f.fs.syncs.Add(1)
	return err
}
