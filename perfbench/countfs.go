package main

import (
	"os"
	"sync/atomic"
	"time"

	"ftpm/internal/server/store"
)

// countFS wraps the server's filesystem seam and counts what the durable
// store asks of the disk: fsyncs (file and directory), their time, and
// bytes written.
type countFS struct {
	store.FS
	fsyncs, fsyncNs, written atomic.Int64
}

func (c *countFS) Create(name string) (store.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, c: c}, nil
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, c: c}, nil
}

func (c *countFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := c.FS.SyncDir(dir)
	c.noteSync(t0)
	return err
}

func (c *countFS) noteSync(t0 time.Time) {
	c.fsyncs.Add(1)
	c.fsyncNs.Add(time.Since(t0).Nanoseconds())
}

type countFile struct {
	store.File
	c *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.written.Add(int64(n))
	return n, err
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.c.written.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.c.noteSync(t0)
	return err
}
