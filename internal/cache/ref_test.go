package cache

// refLRU is the LRU the bucket-indexed one replaced: a Go map finds blocks
// and InvalidateFile walks the whole recency list. It is kept only as the
// reference model that TestLRUMatchesReference drives in lockstep with LRU.
type refLRU struct {
	capacity   int
	slots      []refSlot
	free       []int32
	head, tail int32
	items      map[BlockID]int32

	hits   int64
	misses int64
}

type refSlot struct {
	id         BlockID
	prev, next int32
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{
		capacity: capacity,
		head:     nilIdx,
		tail:     nilIdx,
		items:    make(map[BlockID]int32),
	}
}

func (c *refLRU) Len() int { return len(c.items) }

func (c *refLRU) Access(id BlockID) bool {
	if c.capacity <= 0 {
		c.misses++
		return false
	}
	if i, ok := c.items[id]; ok {
		c.moveToFront(i)
		c.hits++
		return true
	}
	c.misses++
	c.insert(id)
	return false
}

func (c *refLRU) Contains(id BlockID) bool {
	_, ok := c.items[id]
	return ok
}

func (c *refLRU) Invalidate(id BlockID) {
	if i, ok := c.items[id]; ok {
		c.unlink(i)
		delete(c.items, id)
		c.free = append(c.free, i)
	}
}

func (c *refLRU) InvalidateFile(file uint64) {
	for i := c.head; i != nilIdx; {
		next := c.slots[i].next
		if c.slots[i].id.File == file {
			c.unlink(i)
			delete(c.items, c.slots[i].id)
			c.free = append(c.free, i)
		}
		i = next
	}
}

func (c *refLRU) unlink(i int32) {
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

func (c *refLRU) pushFront(i int32) {
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

func (c *refLRU) moveToFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}

func (c *refLRU) insert(id BlockID) {
	if len(c.items) >= c.capacity {
		if b := c.tail; b != nilIdx {
			c.unlink(b)
			delete(c.items, c.slots[b].id)
			c.free = append(c.free, b)
		}
	}
	var i int32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		c.slots = append(c.slots, refSlot{})
		i = int32(len(c.slots) - 1)
	}
	c.slots[i].id = id
	c.pushFront(i)
	c.items[id] = i
}

func (c *refLRU) Reset() {
	for i := c.head; i != nilIdx; {
		next := c.slots[i].next
		delete(c.items, c.slots[i].id)
		c.free = append(c.free, i)
		i = next
	}
	c.head, c.tail = nilIdx, nilIdx
}

// order lists the cached blocks from most to least recently used.
func (c *refLRU) order() []BlockID {
	var out []BlockID
	for i := c.head; i != nilIdx; i = c.slots[i].next {
		out = append(out, c.slots[i].id)
	}
	return out
}
