// Package cache implements the LRU block cache used by the simulated NFS
// server (and optionally by local file systems). Cache behaviour is the main
// source of the large response-time standard deviations the thesis reports
// in Table 5.3: hits cost a memory copy, misses cost a disk access three
// orders of magnitude slower. It sits in the pipeline's DES stage, between
// the simulated server and the disk model it shields.
package cache

import "math/bits"

// BlockID identifies one cached block: a file identity plus a block index.
type BlockID struct {
	File  uint64
	Block int64
}

// nilIdx terminates the slot links.
const nilIdx = -1

// slot is one LRU list node, linked by slot index rather than pointer: the
// slot array is allocated as the cache fills and recycled on eviction, so
// steady-state misses allocate nothing (the old container/list backing
// allocated an Element per insert — measurable on the macro benchmarks,
// where every cache miss in a multi-million-event run paid it).
//
// A slot is on three lists: the recency list, the chain of its block's hash
// bucket, which lookups search, and the chain of its file's hash bucket,
// which InvalidateFile walks. Only the recency list has an order.
type slot struct {
	id           BlockID
	prev, next   int32 // recency list
	fprev, fnext int32 // file-bucket chain
	bnext        int32 // block-bucket chain
}

// LRU is a fixed-capacity least-recently-used block cache. It is not safe
// for concurrent use; in the DES only one process runs at a time, which is
// the synchronization the simulated server relies on.
type LRU struct {
	capacity   int
	slots      []slot
	free       []int32
	head, tail int32
	n          int // cached blocks

	// blocks and files map a block's and a file's hash bucket to the head
	// of its chain. Both are a power of two long, kept at or above
	// len(slots), so a chain holds at most one block on average besides the
	// blocks of the file looked for, and the index grows with the slot
	// array, not with file ids or block numbers. shift turns a 64-bit hash
	// into a bucket index; it starts at 64, sending everything to the one
	// initial bucket.
	blocks []int32
	files  []int32
	shift  uint8

	hits   int64
	misses int64
}

// NewLRU returns a cache holding up to capacity blocks. A capacity of zero
// or less disables caching (every access misses).
func NewLRU(capacity int) *LRU {
	return &LRU{
		capacity: capacity,
		head:     nilIdx,
		tail:     nilIdx,
		blocks:   []int32{nilIdx},
		files:    []int32{nilIdx},
		shift:    64,
	}
}

// Len returns the number of blocks currently cached.
func (c *LRU) Len() int { return c.n }

// Access touches a block, returning true on a hit. On a miss the block is
// inserted (evicting the least recently used block if full).
func (c *LRU) Access(id BlockID) bool {
	if c.capacity <= 0 {
		c.misses++
		return false
	}
	if i := c.find(id); i != nilIdx {
		c.moveToFront(i)
		c.hits++
		return true
	}
	c.misses++
	c.insert(id)
	return false
}

// Contains reports whether a block is cached without touching LRU order or
// statistics.
func (c *LRU) Contains(id BlockID) bool {
	return c.find(id) != nilIdx
}

// Invalidate removes a block if present (e.g., after a file is truncated).
func (c *LRU) Invalidate(id BlockID) {
	if i := c.find(id); i != nilIdx {
		c.drop(i)
	}
}

// InvalidateFile removes every cached block of the given file. It walks
// only the file's hash bucket: the file's own blocks plus, on average, at
// most one block of other files, whatever the cache holds besides.
func (c *LRU) InvalidateFile(file uint64) {
	for i := c.files[c.fileBucket(file)]; i != nilIdx; {
		next := c.slots[i].fnext
		if c.slots[i].id.File == file {
			c.drop(i)
		}
		i = next
	}
}

// drop removes cached slot i from the recency list and both chains, and
// recycles it.
func (c *LRU) drop(i int32) {
	c.unlink(i)
	c.unlinkFile(i)
	c.unlinkBlock(i)
	c.n--
	c.free = append(c.free, i)
}

// fileBucket and blockBucket hash with Fibonacci multipliers: inode and
// block numbers are small and dense, and the multiply spreads them over the
// top bits that shift keeps.
func (c *LRU) fileBucket(file uint64) uint64 {
	return (file * 0x9E3779B97F4A7C15) >> c.shift
}

func (c *LRU) blockBucket(id BlockID) uint64 {
	return ((id.File*0x9E3779B97F4A7C15 ^ uint64(id.Block)) * 0xBF58476D1CE4E5B9) >> c.shift
}

// find returns the slot caching id, or nilIdx.
func (c *LRU) find(id BlockID) int32 {
	i := c.blocks[c.blockBucket(id)]
	for i != nilIdx && c.slots[i].id != id {
		i = c.slots[i].bnext
	}
	return i
}

// pushBlock links slot i at the head of its block bucket's chain.
func (c *LRU) pushBlock(i int32) {
	b := c.blockBucket(c.slots[i].id)
	c.slots[i].bnext = c.blocks[b]
	c.blocks[b] = i
}

// unlinkBlock removes slot i from its block bucket's chain. The chain is
// singly linked: it holds about one block, so walking to the predecessor
// costs no more than keeping a back link.
func (c *LRU) unlinkBlock(i int32) {
	p := &c.blocks[c.blockBucket(c.slots[i].id)]
	for *p != i {
		p = &c.slots[*p].bnext
	}
	*p = c.slots[i].bnext
}

// pushFile links slot i at the head of its file bucket's chain.
func (c *LRU) pushFile(i int32) {
	s := &c.slots[i]
	b := c.fileBucket(s.id.File)
	s.fprev = nilIdx
	s.fnext = c.files[b]
	if s.fnext != nilIdx {
		c.slots[s.fnext].fprev = i
	}
	c.files[b] = i
}

// unlinkFile removes slot i from its file bucket's chain. This chain holds
// all of a file's blocks, so it is doubly linked.
func (c *LRU) unlinkFile(i int32) {
	s := &c.slots[i]
	if s.fprev != nilIdx {
		c.slots[s.fprev].fnext = s.fnext
	} else {
		c.files[c.fileBucket(s.id.File)] = s.fnext
	}
	if s.fnext != nilIdx {
		c.slots[s.fnext].fprev = s.fprev
	}
}

// emptyBuckets unlinks every chain head.
func (c *LRU) emptyBuckets() {
	for j := range c.blocks {
		c.blocks[j] = nilIdx
		c.files[j] = nilIdx
	}
}

// growBuckets doubles both bucket arrays and relinks every cached slot. It
// runs only when the slot array outgrows the buckets, so its cost is
// amortized over the inserts that grew the slots.
func (c *LRU) growBuckets() {
	n := 2 * len(c.blocks)
	c.blocks = make([]int32, n)
	c.files = make([]int32, n)
	c.emptyBuckets()
	c.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for i := c.head; i != nilIdx; i = c.slots[i].next {
		c.pushBlock(i)
		c.pushFile(i)
	}
}

// unlink removes slot i from the LRU list without recycling it.
func (c *LRU) unlink(i int32) {
	s := &c.slots[i]
	if s.prev != nilIdx {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next != nilIdx {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

// pushFront links slot i at the most-recently-used end.
func (c *LRU) pushFront(i int32) {
	s := &c.slots[i]
	s.prev = nilIdx
	s.next = c.head
	if c.head != nilIdx {
		c.slots[c.head].prev = i
	}
	c.head = i
	if c.tail == nilIdx {
		c.tail = i
	}
}

func (c *LRU) moveToFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}

func (c *LRU) insert(id BlockID) {
	if c.n >= c.capacity {
		if b := c.tail; b != nilIdx {
			c.drop(b)
		}
	}
	var i int32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		c.slots = append(c.slots, slot{})
		i = int32(len(c.slots) - 1)
		if len(c.slots) > len(c.blocks) {
			c.growBuckets()
		}
	}
	c.slots[i].id = id
	c.pushFront(i)
	c.pushBlock(i)
	c.pushFile(i)
	c.n++
}

// Reset empties the cache: every cached block is discarded and the slot
// storage is kept for reuse, as if the owning machine had just rebooted.
// Hit/miss statistics are preserved — a crash does not erase what the run
// has measured, only what the machine had warmed.
func (c *LRU) Reset() {
	c.emptyBuckets()
	c.slots = c.slots[:0]
	c.free = c.free[:0]
	c.head, c.tail = nilIdx, nilIdx
	c.n = 0
}

// Hits returns the number of cache hits recorded.
func (c *LRU) Hits() int64 { return c.hits }

// Misses returns the number of cache misses recorded.
func (c *LRU) Misses() int64 { return c.misses }

// HitRate returns hits / (hits + misses), or 0 with no accesses.
func (c *LRU) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
