package main

import (
	"fmt"

	"uswg/internal/cache"
	"uswg/internal/netsim"
	"uswg/internal/sim"
	"uswg/internal/trace"
	"uswg/internal/vfs"
)

// replayer drives a stream through a continuation-passing file system one
// call at a time. Its continuations are bound once, at construction, so the
// allocations a replay makes are the layer's own. A call that completes
// inline returns to the loop instead of recursing into the next.
type replayer struct {
	fs    vfs.FileSystem
	ctx   vfs.Ctx
	s     *stream
	fds   []vfs.FD
	i     int // next call
	errs  int
	first error
	onEnd func()

	issuing, completed bool

	fdK   func(vfs.FD, error)
	nK    func(int64, error)
	errK  func(error)
	statK func(vfs.FileInfo, error)
	dirK  func([]string, error)
}

func newReplayer(fs vfs.FileSystem, s *stream) *replayer {
	r := &replayer{fs: fs, s: s, fds: make([]vfs.FD, s.slots)}
	r.fdK = r.onFD
	r.nK = func(_ int64, err error) { r.complete(err) }
	r.errK = r.complete
	r.statK = func(_ vfs.FileInfo, err error) { r.complete(err) }
	r.dirK = func(_ []string, err error) { r.complete(err) }
	return r
}

func (r *replayer) loop() {
	for r.i < len(r.s.calls) {
		r.issuing, r.completed = true, false
		r.issue(&r.s.calls[r.i])
		r.issuing = false
		if !r.completed {
			return // the call suspended; its continuation resumes the loop
		}
	}
	if r.onEnd != nil {
		r.onEnd()
	}
}

func (r *replayer) issue(c *call) {
	path := r.s.paths[c.path]
	switch c.op {
	case trace.OpOpen:
		r.fs.Open(r.ctx, path, c.mode, r.fdK)
	case trace.OpCreate:
		r.fs.Create(r.ctx, path, r.fdK)
	case trace.OpRead:
		r.fs.Read(r.ctx, r.fds[c.slot], c.n, r.nK)
	case trace.OpWrite:
		r.fs.Write(r.ctx, r.fds[c.slot], c.n, r.nK)
	case trace.OpSeek:
		r.fs.Seek(r.ctx, r.fds[c.slot], 0, vfs.SeekStart, r.nK)
	case trace.OpClose:
		r.fs.Close(r.ctx, r.fds[c.slot], r.errK)
	case trace.OpUnlink:
		r.fs.Unlink(r.ctx, path, r.errK)
	case trace.OpStat:
		r.fs.Stat(r.ctx, path, r.statK)
	case trace.OpReadDir:
		r.fs.ReadDir(r.ctx, path, r.dirK)
	case trace.OpMkdir:
		r.fs.Mkdir(r.ctx, path, r.errK)
	default:
		r.complete(fmt.Errorf("unknown op %v", c.op))
	}
}

func (r *replayer) onFD(fd vfs.FD, err error) {
	if err == nil {
		r.fds[r.s.calls[r.i].slot] = fd
	}
	r.complete(err)
}

func (r *replayer) complete(err error) {
	if err != nil {
		if r.errs == 0 {
			c := r.s.calls[r.i]
			r.first = fmt.Errorf("call %d (%s %s): %w", r.i, c.op, r.s.paths[c.path], err)
		}
		r.errs++
	}
	r.i++
	r.completed = true
	if !r.issuing {
		r.loop()
	}
}

// result reports a finished replay's failures: it must have executed every
// recorded call, none of them failing.
func (r *replayer) result() error {
	switch {
	case r.errs > 0:
		return fmt.Errorf("%d of %d replayed calls failed, first %w", r.errs, len(r.s.calls), r.first)
	case r.i != len(r.s.calls):
		return fmt.Errorf("replayed %d of %d calls", r.i, len(r.s.calls))
	}
	return nil
}

// replaySim replays the stream through fs as one simulated process of env.
func replaySim(env *sim.Env, fs vfs.FileSystem, s *stream) error {
	r := newReplayer(fs, s)
	env.Start("replay", func(p *sim.Proc, done sim.K) {
		r.ctx, r.onEnd = p, done
		r.loop()
	})
	if err := env.Run(sim.Forever); err != nil {
		return err
	}
	return r.result()
}

// replayBare replays the stream through MemFS's synchronous API.
func replayBare(b vfs.Bare, s *stream) error {
	fds := make([]vfs.FD, s.slots)
	for i := range s.calls {
		c := &s.calls[i]
		path := s.paths[c.path]
		var err error
		switch c.op {
		case trace.OpOpen:
			fds[c.slot], err = b.Open(path, c.mode)
		case trace.OpCreate:
			fds[c.slot], err = b.Create(path)
		case trace.OpRead:
			_, err = b.Read(fds[c.slot], c.n)
		case trace.OpWrite:
			_, err = b.Write(fds[c.slot], c.n)
		case trace.OpSeek:
			_, err = b.Seek(fds[c.slot], 0, vfs.SeekStart)
		case trace.OpClose:
			err = b.Close(fds[c.slot])
		case trace.OpUnlink:
			err = b.Unlink(path)
		case trace.OpStat:
			_, err = b.Stat(path)
		case trace.OpReadDir:
			_, err = b.ReadDir(path)
		case trace.OpMkdir:
			err = b.Mkdir(path)
		}
		if err != nil {
			return fmt.Errorf("call %d (%s %s): %w", i, c.op, path, err)
		}
	}
	return nil
}

// appendLog replays the stream's records into a fresh log through each
// user's lock-free shard, resolved once per user.
func appendLog(s *stream, users int) *trace.Log {
	l := &trace.Log{}
	l.Reserve(users)
	shards := make([]*trace.Shard, users)
	for _, u := range s.users {
		shards[u] = l.Shard(u)
	}
	for i := range s.records {
		shards[s.records[i].User].Append(s.records[i])
	}
	return l
}

// fold replays the stream's records into a fresh streaming summarizer
// through each user's stream, resolved once per user.
func fold(s *stream, users int) *trace.Analysis {
	sum := trace.NewSummarizer()
	streams := make([]trace.Stream, users)
	for _, u := range s.users {
		streams[u] = sum.Stream(u)
	}
	for i := range s.records {
		streams[s.records[i].User].Emit(&s.records[i])
	}
	return sum.Finish()
}

// cacheDrive is a standalone LRU driven by the stream: filled to capacity
// with blocks no call touches, then every block a read or write covers is
// accessed and every unlink invalidates its file. Accesses are timed in
// batches between invalidations, each invalidation alone.
type cacheDrive struct {
	accesses, invalidations int64
	accessNS, invalidateNS  int64
}

func driveCache(s *stream, capacity int, blockSize int64, clock func() int64) cacheDrive {
	lru := cache.NewLRU(capacity)
	cold := uint64(len(s.paths)) // file ids past every stream path
	for b := 0; b < capacity; b++ {
		lru.Access(cache.BlockID{File: cold, Block: int64(b)})
	}
	var d cacheDrive
	batch := clock()
	for i := range s.calls {
		c := &s.calls[i]
		switch {
		case c.op.IsData() && c.n > 0:
			file := uint64(c.path)
			for b := c.off / blockSize; b <= (c.off+c.n-1)/blockSize; b++ {
				lru.Access(cache.BlockID{File: file, Block: b})
				d.accesses++
			}
		case c.op == trace.OpUnlink:
			t := clock()
			d.accessNS += t - batch
			lru.InvalidateFile(uint64(c.path))
			batch = clock()
			d.invalidateNS += batch - t
			d.invalidations++
		}
	}
	d.accessNS += clock() - batch
	return d
}

// mover is one simulated process sending the stream's data-call sizes over
// a shared link, its continuation bound once.
type mover struct {
	p     *sim.Proc
	link  *netsim.Link
	sizes []int64
	next  int
	k     func()
	done  func()
}

func (m *mover) send() {
	if m.next == len(m.sizes) {
		m.done()
		return
	}
	n := m.sizes[m.next]
	m.next++
	m.link.Transfer(m.p, n, m.k)
}

// driveLink sends every data call's payload plus header over one link
// from procs processes, call i from process i mod procs. It returns the
// message count.
func driveLink(s *stream, cfg netsim.Config, header int64, procs int) (int64, error) {
	env := sim.NewEnv()
	link := netsim.NewLink(env, cfg)
	movers := make([]*mover, procs)
	for i := range movers {
		movers[i] = &mover{link: link}
	}
	j := 0
	for i := range s.calls {
		if c := &s.calls[i]; c.op.IsData() {
			movers[j%procs].sizes = append(movers[j%procs].sizes, c.n+header)
			j++
		}
	}
	for i, m := range movers {
		m.k = m.send
		env.Start(fmt.Sprintf("mover%d", i), func(p *sim.Proc, done sim.K) {
			m.p, m.done = p, done
			m.send()
		})
	}
	if err := env.Run(sim.Forever); err != nil {
		return 0, err
	}
	return link.Messages(), nil
}

// holder is one simulated process holding for a fixed delay, events times.
type holder struct {
	p    *sim.Proc
	d    float64
	left int
	k    func()
	done func()
}

func (h *holder) step() {
	if h.left == 0 {
		h.done()
		return
	}
	h.left--
	h.p.Hold(h.d, h.k)
}

// driveHold runs procs processes of events holds each, with delays spread
// over a few values so the event heap reorders. It returns the event count.
func driveHold(procs, events int) (int64, error) {
	env := sim.NewEnv()
	for i := 0; i < procs; i++ {
		h := &holder{d: float64(1 + i%7), left: events}
		h.k = h.step
		env.Start(fmt.Sprintf("holder%d", i), func(p *sim.Proc, done sim.K) {
			h.p, h.done = p, done
			h.step()
		})
	}
	return int64(procs * events), env.Run(sim.Forever)
}

// cycler is one simulated process cycling acquire → service hold →
// release → think hold on a shared resource, continuations bound once.
type cycler struct {
	p          *sim.Proc
	res        *sim.Resource
	svc, think float64
	left       int
	nextK      func()
	acquiredK  func()
	servedK    func()
	done       func()
}

func (c *cycler) next() {
	if c.left == 0 {
		c.done()
		return
	}
	c.left--
	c.res.Acquire(c.p, c.acquiredK)
}

func (c *cycler) acquired() { c.p.Hold(c.svc, c.servedK) }

func (c *cycler) served() {
	c.res.Release()
	c.p.Hold(c.think, c.nextK)
}

// driveResource runs procs processes of cycles acquisitions each against
// a resource of servers units, with think time set so the resource is
// about half busy. It returns the acquisition count.
func driveResource(procs, servers, cycles int) (int64, error) {
	env := sim.NewEnv()
	res := sim.NewResource(env, servers)
	const svc = 100.0
	think := svc * (2*float64(procs)/float64(servers) - 1)
	if think < 0 {
		think = 0
	}
	for i := 0; i < procs; i++ {
		c := &cycler{res: res, svc: svc, think: think, left: cycles}
		c.nextK, c.acquiredK, c.servedK = c.next, c.acquired, c.served
		env.Start(fmt.Sprintf("cycler%d", i), func(p *sim.Proc, done sim.K) {
			c.p, c.done = p, done
			c.next()
		})
	}
	if err := env.Run(sim.Forever); err != nil {
		return 0, err
	}
	return res.Acquired(), nil
}
