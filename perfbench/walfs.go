package main

import (
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// timingFS is the wal.FS handed to AttachDurability: the real
// filesystem, with every Sync timed and every written byte counted.
type timingFS struct {
	wal.FS
	tr    *tracer
	seqOf func() uint64 // the write in flight, for span linking
	syncs samples       // µs
	bytes atomic.Int64
}

func (f *timingFS) OpenAppend(path string) (wal.File, error) {
	file, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

type timingFile struct {
	wal.File
	fs *timingFS
}

func (f *timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	sp := f.fs.tr.start("wal.sync", 0, f.fs.seqOf())
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.syncs.addDur(time.Since(t0), time.Microsecond)
	sp.end()
	return err
}
