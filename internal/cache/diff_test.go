package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// order lists the cached blocks from most to least recently used.
func (c *LRU) order() []BlockID {
	var out []BlockID
	for i := c.head; i != nilIdx; i = c.slots[i].next {
		out = append(out, c.slots[i].id)
	}
	return out
}

// checkChains verifies the bucket index: both bucket arrays are a power of
// two at least as long as the slot array; every block chain holds blocks
// hashing to its bucket, every file chain is well linked and holds blocks
// whose files hash to its bucket; and each kind of chain together holds
// exactly the cached blocks, each findable in its own slot.
func (c *LRU) checkChains() error {
	n := len(c.blocks)
	if n != len(c.files) || n < len(c.slots) || n&(n-1) != 0 {
		return fmt.Errorf("%d block and %d file buckets for %d slots, want equal powers of two at least as large",
			n, len(c.files), len(c.slots))
	}
	inBlocks, inFiles := 0, 0
	for b := range c.blocks {
		for i := c.blocks[b]; i != nilIdx; i = c.slots[i].bnext {
			if got := c.blockBucket(c.slots[i].id); got != uint64(b) {
				return fmt.Errorf("block bucket %d chains slot %d (%v), which hashes to %d", b, i, c.slots[i].id, got)
			}
			inBlocks++
		}
		for i, prev := c.files[b], int32(nilIdx); i != nilIdx; prev, i = i, c.slots[i].fnext {
			s := c.slots[i]
			if c.fileBucket(s.id.File) != uint64(b) || s.fprev != prev {
				return fmt.Errorf("file bucket %d: slot %d holds %v (bucket %d) with fprev %d, want fprev %d",
					b, i, s.id, c.fileBucket(s.id.File), s.fprev, prev)
			}
			if j := c.find(s.id); j != i {
				return fmt.Errorf("file bucket %d: slot %d holds %v, but find returns slot %d", b, i, s.id, j)
			}
			inFiles++
		}
	}
	if inBlocks != c.n || inFiles != c.n {
		return fmt.Errorf("block chains hold %d blocks and file chains %d, cache holds %d", inBlocks, inFiles, c.n)
	}
	return nil
}

// TestLRUMatchesReference drives the indexed LRU and the scanning reference
// model with the same random operation stream and requires identical
// results, statistics and recency order after every operation. File ids
// are large and block numbers sparse; a share of the invalidations target
// files that were never cached, repeatedly.
func TestLRUMatchesReference(t *testing.T) {
	capacities := []int{0, 1}
	for c := 2; c <= 64; c++ {
		capacities = append(capacities, c)
	}
	for _, capacity := range capacities {
		for seed := int64(0); seed < 4; seed++ {
			r := rand.New(rand.NewSource(seed*1000 + int64(capacity)))
			files := make([]uint64, 1+r.Intn(8))
			for i := range files {
				files[i] = r.Uint64()
			}
			absent := []uint64{files[0] ^ 1, 1 << 63, 0}
			blocks := make([]int64, 1+r.Intn(3*capacity+4))
			for i := range blocks {
				blocks[i] = r.Int63()
			}
			pick := func() BlockID {
				return BlockID{File: files[r.Intn(len(files))], Block: blocks[r.Intn(len(blocks))]}
			}
			got, want := NewLRU(capacity), newRefLRU(capacity)
			for step := 0; step < 600; step++ {
				var op string
				switch k := r.Intn(100); {
				case k < 60:
					id := pick()
					op = fmt.Sprintf("Access(%v)", id)
					if g, w := got.Access(id), want.Access(id); g != w {
						t.Fatalf("cap %d seed %d step %d: %s = %v, reference %v", capacity, seed, step, op, g, w)
					}
				case k < 70:
					id := pick()
					op = fmt.Sprintf("Contains(%v)", id)
					if g, w := got.Contains(id), want.Contains(id); g != w {
						t.Fatalf("cap %d seed %d step %d: %s = %v, reference %v", capacity, seed, step, op, g, w)
					}
				case k < 80:
					id := pick()
					op = fmt.Sprintf("Invalidate(%v)", id)
					got.Invalidate(id)
					want.Invalidate(id)
				case k < 88:
					f := files[r.Intn(len(files))]
					op = fmt.Sprintf("InvalidateFile(%d)", f)
					got.InvalidateFile(f)
					want.InvalidateFile(f)
				case k < 98:
					f := absent[r.Intn(len(absent))]
					op = fmt.Sprintf("InvalidateFile(absent %d)", f)
					got.InvalidateFile(f)
					want.InvalidateFile(f)
				default:
					op = "Reset()"
					got.Reset()
					want.Reset()
				}
				if got.Len() != want.Len() || got.Hits() != want.hits || got.Misses() != want.misses {
					t.Fatalf("cap %d seed %d step %d after %s: len/hits/misses = %d/%d/%d, reference %d/%d/%d",
						capacity, seed, step, op, got.Len(), got.Hits(), got.Misses(), want.Len(), want.hits, want.misses)
				}
				if g, w := got.order(), want.order(); !slices.Equal(g, w) {
					t.Fatalf("cap %d seed %d step %d after %s: recency order\n got %v\nwant %v", capacity, seed, step, op, g, w)
				}
				if err := got.checkChains(); err != nil {
					t.Fatalf("cap %d seed %d step %d after %s: %v", capacity, seed, step, op, err)
				}
			}
		}
	}
}

// TestLRUSteadyStateAllocatesNothing pins the zero-allocation data path on a
// full cache: a hit, a miss that evicts, and a whole-file invalidation.
func TestLRUSteadyStateAllocatesNothing(t *testing.T) {
	const capacity, per = 2048, 16
	c := NewLRU(capacity)
	fill(c, capacity/per, per)
	hit := BlockID{File: 3, Block: 5}
	if n := testing.AllocsPerRun(1000, func() { c.Access(hit) }); n != 0 {
		t.Errorf("hit allocates %v per call", n)
	}

	// Each miss is a new block of a new file, evicting the oldest block.
	next := uint64(1 << 40)
	miss := func() {
		if c.Access(BlockID{File: next / per, Block: int64(next % per)}) {
			t.Fatal("fresh block hit")
		}
		next++
	}
	for i := 0; i < 4*capacity; i++ { // let the maps reach their steady size
		miss()
	}
	if n := testing.AllocsPerRun(1000, miss); n != 0 {
		t.Errorf("miss with eviction allocates %v per call", n)
	}

	// Invalidate a cached 16-block file, then re-cache it for the next run.
	file := next / per
	inval := func() {
		c.InvalidateFile(file)
		for b := 0; b < per; b++ {
			c.Access(BlockID{File: file, Block: int64(b)})
		}
	}
	inval()
	if n := testing.AllocsPerRun(1000, inval); n != 0 {
		t.Errorf("InvalidateFile plus refill allocates %v per call", n)
	}
	if c.Len() != capacity {
		t.Errorf("Len = %d, want a full cache of %d", c.Len(), capacity)
	}
}
