package cache

import (
	"math/rand"
	"testing"
)

// benchCap is the server cache size the paper workloads run with.
const benchCap = 2048

var sinkHit bool

// fill caches blocks 0..per-1 of files 0..n-1, file by file.
func fill(c *LRU, n, per int) {
	for f := 0; f < n; f++ {
		for b := 0; b < per; b++ {
			c.Access(BlockID{File: uint64(f), Block: int64(b)})
		}
	}
}

// BenchmarkLRUAccess runs a mixed hit/miss stream against a full cache: the
// working set is 1.5× capacity (192 files of 16 blocks), visited in a fixed
// random order, so about two thirds of accesses hit and every miss evicts.
func BenchmarkLRUAccess(b *testing.B) {
	const files, per = 192, 16
	r := rand.New(rand.NewSource(1))
	ids := make([]BlockID, 1<<16)
	for i := range ids {
		ids[i] = BlockID{File: uint64(r.Intn(files)), Block: int64(r.Intn(per))}
	}
	c := NewLRU(benchCap)
	for _, id := range ids {
		c.Access(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkHit = c.Access(ids[i&(len(ids)-1)])
	}
}

// BenchmarkLRUInvalidateFile times InvalidateFile on a full cache of 128
// files × 16 blocks. "absent" invalidates an inode with nothing cached, the
// case every NFS create hits. "file16" drops one cached 16-block file; the
// timer stops while each batch of 64 dropped files is cached again, so the
// cache holds between 1024 and 2048 blocks while it is timed.
func BenchmarkLRUInvalidateFile(b *testing.B) {
	const files, per = benchCap / 16, 16
	b.Run("absent", func(b *testing.B) {
		c := NewLRU(benchCap)
		fill(c, files, per)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.InvalidateFile(files + uint64(i))
		}
	})
	b.Run("file16", func(b *testing.B) {
		const batch = files / 2
		c := NewLRU(benchCap)
		fill(c, files, per)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%batch == 0 && i > 0 {
				b.StopTimer()
				fill(c, batch, per)
				b.StartTimer()
			}
			c.InvalidateFile(uint64(i % batch))
		}
	})
}
