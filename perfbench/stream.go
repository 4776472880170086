package main

import (
	"fmt"

	"uswg/internal/config"
	"uswg/internal/trace"
	"uswg/internal/vfs"
)

// call is one recorded file-system call compiled for replay: its path is
// interned, its descriptor resolved to a slot, and its file offset known, so
// a replay does slice indexing only and its cost is the layer's.
type call struct {
	op   trace.Op
	mode vfs.OpenMode // open mode, for opens
	user int32
	path int32 // index into stream.paths
	slot int32 // descriptor slot, for descriptor calls
	n    int64 // bytes, for reads and writes
	off  int64 // offset a read or write starts at
}

// stream is a workload's recorded call stream, in completion order: the
// order the simulated users' calls finished in the log-mode run.
type stream struct {
	calls   []call
	records []trace.Record // the same calls as the log recorded them
	paths   []string
	slots   int   // descriptor slots the replay needs
	users   []int // users in first-appearance order
}

// compileStream compiles the first max records of a log (all when max is
// 0). Seeks compile to rewinds, the only seek the sequential categories
// issue. It fails on a record it cannot place: a data call without an open
// descriptor, or a failed call.
func compileStream(l *trace.Log, spec *config.Spec, max int) (*stream, error) {
	s := &stream{}
	pathIdx := map[string]int32{}
	type key struct{ session, path int32 }
	open := map[key]int32{}
	seen := map[int32]bool{}
	var free []int32
	var offs []int64
	var err error
	l.Each(func(r *trace.Record) {
		if err != nil || (max > 0 && len(s.calls) >= max) {
			return
		}
		if r.Err != "" {
			err = fmt.Errorf("record %d: failed %s %s: %s", len(s.calls), r.Op, r.Path, r.Err)
			return
		}
		p, ok := pathIdx[r.Path]
		if !ok {
			p = int32(len(s.paths))
			pathIdx[r.Path] = p
			s.paths = append(s.paths, r.Path)
		}
		u := int32(r.User)
		if !seen[u] {
			seen[u] = true
			s.users = append(s.users, r.User)
		}
		c := call{op: r.Op, user: u, path: p, slot: -1}
		k := key{int32(r.Session), p}
		switch r.Op {
		case trace.OpOpen, trace.OpCreate:
			var slot int32
			if n := len(free); n > 0 {
				slot, free = free[n-1], free[:n-1]
			} else {
				slot = int32(len(offs))
				offs = append(offs, 0)
			}
			open[k] = slot
			offs[slot] = 0
			c.slot = slot
			c.mode = vfs.ReadOnly
			if r.Category >= 0 && spec.Categories[r.Category].Writes() {
				c.mode = vfs.ReadWrite
			}
		case trace.OpRead, trace.OpWrite, trace.OpSeek, trace.OpClose:
			slot, ok := open[k]
			if !ok {
				err = fmt.Errorf("record %d: %s on %s with no open descriptor", len(s.calls), r.Op, r.Path)
				return
			}
			c.slot = slot
			switch r.Op {
			case trace.OpRead, trace.OpWrite:
				c.n, c.off = r.Bytes, offs[slot]
				offs[slot] += r.Bytes
			case trace.OpSeek:
				offs[slot] = 0
			case trace.OpClose:
				delete(open, k)
				free = append(free, slot)
			}
		}
		s.calls = append(s.calls, c)
		s.records = append(s.records, *r)
	})
	if err != nil {
		return nil, err
	}
	s.slots = len(offs)
	return s, nil
}
