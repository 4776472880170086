package core

import (
	"fmt"
	"sort"
)

// Metric is one named measurement of a finished run.
type Metric struct {
	Name  string
	Value float64
}

// Metrics is a run's snapshot: one entry per measurement whose layer exists
// in the run, sorted by name.
type Metrics []Metric

// Value returns the named entry. ok is false for a name the run does not
// measure, such as an NFS counter on a local file system.
func (m Metrics) Value(name string) (v float64, ok bool) {
	i := sort.Search(len(m), func(i int) bool { return m[i].Name >= name })
	if i < len(m) && m[i].Name == name {
		return m[i].Value, true
	}
	return 0, false
}

// fold is how an entry combines the values of its reporters: one per
// island for the server and link counters, one for every other layer.
type fold uint8

const (
	foldSum      fold = iota + 1 // total over reporters
	foldMean                     // unweighted mean over reporters
	foldWeighted                 // mean weighted by each reporter's weight
)

// accum is one entry's running fold.
type accum struct {
	name   string
	fold   fold
	n      int     // reporters so far
	first  float64 // the first reporter's value
	sum    float64 // Σv, or Σv·w for foldWeighted
	weight float64 // Σw, foldWeighted only
}

// value finishes the fold. A single reporter's mean is its own value bit
// for bit (v·w/w need not be v), and a weighted mean with no weight is 0.
func (a *accum) value() float64 {
	switch {
	case a.fold == foldSum:
		return a.sum
	case a.n == 1:
		return a.first
	case a.fold == foldMean:
		return a.sum / float64(a.n)
	case a.weight == 0:
		return 0
	default:
		return a.sum / a.weight
	}
}

// metricSet accumulates a snapshot. Each entry's fold is declared by the
// call that reports it; reporting one name under two folds panics.
type metricSet struct {
	index map[string]int
	accs  []accum
}

func (s *metricSet) add(name string, f fold, v, w float64) {
	if s.index == nil {
		s.index = make(map[string]int)
	}
	i, ok := s.index[name]
	if !ok {
		i = len(s.accs)
		s.index[name] = i
		s.accs = append(s.accs, accum{name: name, fold: f, first: v})
	}
	a := &s.accs[i]
	if a.fold != f {
		panic(fmt.Sprintf("core: metric %q reported with two folds", name))
	}
	a.n++
	if f == foldWeighted {
		a.sum += v * w
		a.weight += w
	} else {
		a.sum += v
	}
}

func (s *metricSet) sum(name string, v float64)         { s.add(name, foldSum, v, 0) }
func (s *metricSet) mean(name string, v float64)        { s.add(name, foldMean, v, 0) }
func (s *metricSet) weighted(name string, v, w float64) { s.add(name, foldWeighted, v, w) }

// snapshot returns the finished entries, sorted by name.
func (s *metricSet) snapshot() Metrics {
	out := make(Metrics, len(s.accs))
	for i := range s.accs {
		out[i] = Metric{Name: s.accs[i].name, Value: s.accs[i].value()}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Metrics returns the finished run's snapshot, or nil before a successful
// Run. It is built on each call from every island's server and link, the
// fault engine, the churn counts, the FSC and warming counts, and the run's
// analysis. Server and link entries exist only in NFS mode and the fault
// entry only with a fault plan.
func (g *Generator) Metrics() Metrics {
	if g.res == nil {
		return nil
	}
	var s metricSet
	a := g.res.Analysis
	s.sum("usim.sessions", float64(g.res.Sessions))
	s.sum("usim.ops", float64(a.Ops))
	s.sum("usim.errors", float64(a.Errors))
	s.mean("usim.availability", a.Availability())
	s.mean("usim.response_us_per_byte", a.MeanResponsePerByte())
	churn := g.simulator.Churn()
	s.sum("usim.churn.crashes", float64(churn.Crashes))
	s.sum("usim.churn.reboots", float64(churn.Reboots))
	s.sum("usim.churn.truncated_sessions", float64(churn.TruncatedSessions))
	s.sum("usim.churn.departed", float64(churn.Departed))
	s.sum("fsc.build_ops", float64(g.inventory.BuildOps))
	s.sum("fsc.materialized_users", float64(g.inventory.UsersBuilt))
	s.sum("core.warm_ops", float64(g.warmOps))
	for _, srv := range g.servers {
		calls := float64(srv.Calls())
		s.sum("nfs.server.calls", calls)
		s.sum("nfs.server.stalls", float64(srv.Stalls()))
		s.sum("nfs.server.restarts", float64(srv.Restarts()))
		s.mean("nfs.server.nfsd_util", srv.NFSDUtilization())
		// Calls-weighted, so an idle island does not dilute the wait the
		// workload actually experienced.
		s.weighted("nfs.server.nfsd_wait_us", srv.MeanNFSDWait(), calls)
		c := srv.Cache()
		s.weighted("cache.server.hit_ratio", c.HitRate(), float64(c.Hits()+c.Misses()))
	}
	for _, l := range g.links {
		s.sum("netsim.drops", float64(l.Drops()))
		s.sum("netsim.retransmits", float64(l.Retransmits()))
		s.sum("netsim.give_ups", float64(l.GiveUps()))
		s.sum("netsim.blocked_us", l.BlockedTime())
	}
	if g.faults != nil {
		s.sum("fault.outage_drops", float64(g.faults.OutageDrops()))
	}
	return s.snapshot()
}
