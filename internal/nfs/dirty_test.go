package nfs

import (
	"testing"

	"uswg/internal/vfs"
)

// TestDirtyBlocksMatchRecount drives a write-behind client through writes
// on several files that cross MaxDirtyBlocks, unaligned and backward writes
// that widen a span at both ends, close-flushes, create-over-existing
// (truncate), unlink of an open file and a crash. After every step the
// incrementally kept dirtyBlocks must equal the sum recomputed from the
// dirty spans, and the flush count must match the one the from-scratch
// recount produced for the same calls.
func TestDirtyBlocksMatchRecount(t *testing.T) {
	const bs = 8192
	c := newCachedClient(t) // MaxDirtyBlocks = 8
	ctx := &vfs.ManualClock{}
	fds := map[string]vfs.FD{}
	create := func(p string) func() error {
		return func() error {
			fd, err := cs(c).Create(ctx, p)
			fds[p] = fd
			return err
		}
	}
	write := func(p string, n int64) func() error {
		return func() error {
			_, err := cs(c).Write(ctx, fds[p], n)
			return err
		}
	}
	seek := func(p string, off int64) func() error {
		return func() error {
			_, err := cs(c).Seek(ctx, fds[p], off, vfs.SeekStart)
			return err
		}
	}
	closeFD := func(p string) func() error {
		return func() error { return cs(c).Close(ctx, fds[p]) }
	}
	steps := []struct {
		name    string
		do      func() error
		dirty   int64 // blocks left dirty after the step
		flushes int64
	}{
		{"create a", create("/a"), 0, 0},
		{"a: 3 blocks", write("/a", 3*bs), 3, 0},
		{"create b", create("/b"), 3, 0},
		{"b: 2.5 blocks", write("/b", 5*bs/2), 6, 0},
		{"a: unaligned tail", write("/a", 1000), 7, 0},
		{"b: cross threshold", write("/b", 3*bs), 4, 1},
		{"b: seek back", seek("/b", bs+100), 4, 1},
		{"b: rewrite inside flushed range", write("/b", 100), 5, 1},
		{"b: seek to start", seek("/b", 10), 5, 1},
		{"b: widen span downward", write("/b", 200), 6, 1},
		{"create c", create("/c"), 6, 1},
		{"c: 8 blocks", write("/c", 8*bs), 6, 2},
		{"close a", closeFD("/a"), 2, 3},
		{"re-create b over its dirty data", create("/b"), 0, 3},
		{"b: 2 blocks", write("/b", 2*bs), 2, 3},
		{"create d", create("/d"), 2, 3},
		{"d: 5 blocks", write("/d", 5*bs), 7, 3},
		{"unlink d while open", func() error { return cs(c).Unlink(ctx, "/d") }, 2, 3},
		{"close d", closeFD("/d"), 2, 3},
		{"c: 3 blocks", write("/c", 3*bs), 5, 3},
		{"crash", func() error { c.Crash(); return nil }, 0, 3},
		{"create e", create("/e"), 0, 3},
		{"e: 9 blocks", write("/e", 9*bs), 0, 4},
		{"e: 1 byte", write("/e", 1), 1, 4},
		{"close e", closeFD("/e"), 0, 5},
	}
	for _, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		var recount int64
		for _, span := range c.dirty {
			recount += (span.hi-1)/bs - span.lo/bs + 1
		}
		if c.dirtyBlocks != recount {
			t.Fatalf("%s: dirtyBlocks = %d, recount over spans = %d", s.name, c.dirtyBlocks, recount)
		}
		if c.dirtyBlocks != s.dirty || c.Flushes() != s.flushes {
			t.Fatalf("%s: dirty blocks/flushes = %d/%d, want %d/%d", s.name, c.dirtyBlocks, c.Flushes(), s.dirty, s.flushes)
		}
	}
}
