package main

import (
	"io/fs"
	"path/filepath"
	"strings"
	"sync/atomic"

	"evorec/internal/store/vfs"
)

// ioCounts are the filesystem operations one tree received.
type ioCounts struct {
	FileSyncs, DirSyncs, Renames, BytesWritten int64
}

func (c ioCounts) sub(o ioCounts) ioCounts {
	return ioCounts{c.FileSyncs - o.FileSyncs, c.DirSyncs - o.DirSyncs,
		c.Renames - o.Renames, c.BytesWritten - o.BytesWritten}
}

type treeCounter struct {
	fileSyncs, dirSyncs, renames, bytes atomic.Int64
}

func (t *treeCounter) snapshot() ioCounts {
	return ioCounts{t.fileSyncs.Load(), t.dirSyncs.Load(), t.renames.Load(), t.bytes.Load()}
}

// countFS is a vfs.FS that forwards to the real filesystem and counts file
// fsyncs, directory fsyncs, renames and bytes written, split by whether the
// path lies under the store tree or the feed tree. The counts are exact and
// deterministic for a given input, unlike fsync latency.
type countFS struct {
	inner     vfs.FS
	storeRoot string
	feedRoot  string
	store     treeCounter
	feed      treeCounter
}

func newCountFS(storeRoot, feedRoot string) *countFS {
	return &countFS{inner: vfs.OS{}, storeRoot: filepath.Clean(storeRoot), feedRoot: filepath.Clean(feedRoot)}
}

func under(path, root string) bool {
	path = filepath.Clean(path)
	return path == root || strings.HasPrefix(path, root+string(filepath.Separator))
}

// tree returns the counter for path, nil outside both trees.
func (c *countFS) tree(path string) *treeCounter {
	switch {
	case under(path, c.storeRoot):
		return &c.store
	case under(path, c.feedRoot):
		return &c.feed
	}
	return nil
}

func (c *countFS) ReadFile(path string) ([]byte, error) { return c.inner.ReadFile(path) }

func (c *countFS) Stat(path string) (fs.FileInfo, error) { return c.inner.Stat(path) }

func (c *countFS) MkdirAll(path string, perm fs.FileMode) error { return c.inner.MkdirAll(path, perm) }

func (c *countFS) Create(path string) (vfs.File, error) {
	f, err := c.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, t: c.tree(path)}, nil
}

func (c *countFS) OpenAppend(path string) (vfs.File, error) {
	f, err := c.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, t: c.tree(path)}, nil
}

func (c *countFS) Rename(oldPath, newPath string) error {
	if t := c.tree(newPath); t != nil {
		t.renames.Add(1)
	}
	return c.inner.Rename(oldPath, newPath)
}

func (c *countFS) Remove(path string) error { return c.inner.Remove(path) }

func (c *countFS) SyncPath(path string) error {
	if t := c.tree(path); t != nil {
		t.fileSyncs.Add(1)
	}
	return c.inner.SyncPath(path)
}

func (c *countFS) SyncDir(dir string) error {
	if t := c.tree(dir); t != nil {
		t.dirSyncs.Add(1)
	}
	return c.inner.SyncDir(dir)
}

// countFile counts the writes and syncs of one open file.
type countFile struct {
	vfs.File
	t *treeCounter
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.t != nil {
		f.t.bytes.Add(int64(n))
	}
	return n, err
}

func (f *countFile) Sync() error {
	if f.t != nil {
		f.t.fileSyncs.Add(1)
	}
	return f.File.Sync()
}
