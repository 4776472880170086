package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"uswg/internal/core"
	"uswg/internal/nfs"
	"uswg/internal/trace"
)

// simStats are the simulated statistics of one completed run: every value
// is a deterministic function of (spec, seed), so a speed-only change to the
// program must leave all of them bit-identical.
type simStats struct {
	Sessions    int              `json:"sessions"`
	OpsByType   map[string]int64 `json:"ops_by_type"`
	Ops         int              `json:"ops"`
	Errors      int              `json:"errors"`
	Bytes       int64            `json:"bytes"`
	VirtualUS   float64          `json:"virtual_us"`
	RespPerByte float64          `json:"resp_per_byte"`
	ServerCalls int64            `json:"server_calls"`
	CacheHits   int64            `json:"cache_hits"`
	CacheMisses int64            `json:"cache_misses"`
	LinkBytes   int64            `json:"link_bytes"`
}

// collectStats reads a finished run's simulated statistics through the
// generator's public getters.
func collectStats(g *core.Generator, res *core.Result) simStats {
	a := res.Analysis
	s := simStats{
		Sessions:    res.Sessions,
		OpsByType:   make(map[string]int64, len(a.ByOp)),
		Ops:         a.Ops,
		Errors:      a.Errors,
		VirtualUS:   res.VirtualDuration,
		RespPerByte: a.MeanResponsePerByte(),
	}
	for _, o := range a.ByOp {
		s.OpsByType[o.Op.String()] = o.Count
	}
	for i := range a.Sessions {
		s.Bytes += a.Sessions[i].Bytes
	}
	for _, srv := range g.Servers() {
		s.ServerCalls += srv.Calls()
		s.CacheHits += srv.Cache().Hits()
		s.CacheMisses += srv.Cache().Misses()
	}
	for _, c := range clientsOf(g) {
		if p := c.Pages(); p != nil {
			s.CacheHits += p.Hits()
			s.CacheMisses += p.Misses()
		}
	}
	if lc := g.LocalCost(); lc != nil {
		s.CacheHits += lc.Cache().Hits()
		s.CacheMisses += lc.Cache().Misses()
	}
	for _, l := range g.Links() {
		s.LinkBytes += l.Bytes()
	}
	return s
}

// clientsOf returns the NFS clients the generator exposes: every pooled
// client of a fleet, or the default client of a single island (the other
// per-user clients of a single island have no public getter).
func clientsOf(g *core.Generator) []*nfs.Client {
	if f := g.Fleet(); f != nil {
		var out []*nfs.Client
		for _, isl := range f.Islands() {
			out = append(out, isl.Pool()...)
		}
		return out
	}
	if c, ok := g.FS().(*nfs.Client); ok {
		return []*nfs.Client{c}
	}
	return nil
}

// digest folds the statistics into one hex string, floats by their bits.
func (s simStats) digest() string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(s.Sessions))
	for op := trace.OpOpen; op <= trace.OpMkdir; op++ {
		put(uint64(s.OpsByType[op.String()]))
	}
	put(uint64(s.Ops))
	put(uint64(s.Errors))
	put(uint64(s.Bytes))
	put(math.Float64bits(s.VirtualUS))
	put(math.Float64bits(s.RespPerByte))
	put(uint64(s.ServerCalls))
	put(uint64(s.CacheHits))
	put(uint64(s.CacheMisses))
	put(uint64(s.LinkBytes))
	return fmt.Sprintf("%016x", h.Sum64())
}
