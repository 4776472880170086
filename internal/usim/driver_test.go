package usim

import (
	"testing"

	"uswg/internal/config"
	"uswg/internal/trace"
)

// TestRunUnderSimShapes drives the one DES user-stream driver through every
// population shape it serves and checks the per-stream contract: the
// returned session count, one Materialize and one Release per stream that
// has sessions (none for an empty stream), and arena recycling — every
// finished stream returns its arena to the free list, and the list never
// holds more arenas than streams were ever active at once.
func TestRunUnderSimShapes(t *testing.T) {
	userType := func(name string, frac float64, lc *config.Lifecycle) config.UserType {
		return config.UserType{Name: name, ThinkTime: config.Const(1000), Fraction: frac, Lifecycle: lc}
	}
	spread := config.DistSpec{Kind: config.KindUniform, Lo: 0, Hi: 1e10}
	storm := config.DistSpec{Kind: config.KindUniform, Lo: 0, Hi: 1e6}
	leaveNow := config.Const(0)

	cases := []struct {
		name     string
		users    int
		sessions int
		conc     int
		lazy     bool
		types    []config.UserType
		want     int   // sessions started
		streams  []int // per user: streams that have sessions
		departed int
		peak     int // if set, the required peak of concurrently active streams
	}{{
		// 5 sessions over 3 users x 2 windows: user 2's second window is
		// empty and gets no process.
		name: "static eager, 2 windows", users: 3, sessions: 5, conc: 2,
		types: []config.UserType{userType("h", 1, nil)},
		want:  5, streams: []int{2, 2, 1},
	}, {
		name: "static lazy", users: 4, sessions: 3, lazy: true,
		types: []config.UserType{userType("h", 1, nil)},
		want:  3, streams: []int{1, 1, 1, 0},
	}, {
		// One session each, arrivals spread over 10^4 s: each user has
		// logged out long before the next arrives.
		name: "lifecycle eager, one after another", users: 4, sessions: 4,
		types: []config.UserType{userType("h", 1, &config.Lifecycle{Arrive: &spread})},
		want:  4, streams: []int{1, 1, 1, 1}, peak: 1,
	}, {
		name: "lifecycle lazy", users: 4, sessions: 3, lazy: true,
		types: []config.UserType{userType("h", 1, &config.Lifecycle{Arrive: &storm})},
		want:  3, streams: []int{1, 1, 1, 0},
	}, {
		// Users 2 and 3 depart at their boot, before their first session;
		// users 0 and 1 are a static class inside the dynamic population.
		name: "lifecycle with departures", users: 4, sessions: 8,
		types: []config.UserType{userType("stay", 0.5, nil), userType("leave", 0.5, &config.Lifecycle{Depart: &leaveNow})},
		want:  4, streams: []int{1, 1, 1, 1}, departed: 2,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, env := desSim(t, trace.NewSummarizer(), func(spec *config.Spec) {
				spec.Users = tc.users
				spec.Sessions = tc.sessions
				spec.Ext.ConcurrentSessions = tc.conc
				spec.LazyUsers = tc.lazy
				spec.UserTypes = tc.types
			})
			materialized := make([]int, tc.users)
			released := make([]int, tc.users)
			active, peak := 0, 0
			s.SetUserHooks(UserHooks{
				Materialize: func(u int) error {
					materialized[u]++
					active++
					peak = max(peak, active)
					return s.inv.MaterializeUser(u)
				},
				Release: func(u int) {
					released[u]++
					active--
				},
			})
			n, err := s.RunUnderSim(env)
			if err != nil {
				t.Fatal(err)
			}
			if n != tc.want {
				t.Errorf("sessions started = %d, want %d", n, tc.want)
			}
			for u, want := range tc.streams {
				if materialized[u] != want || released[u] != want {
					t.Errorf("user %d: %d materializations, %d releases; want %d each",
						u, materialized[u], released[u], want)
				}
			}
			if got := s.Churn().Departed; got != tc.departed {
				t.Errorf("departed = %d, want %d", got, tc.departed)
			}
			if tc.peak > 0 && peak != tc.peak {
				t.Fatalf("peak active streams = %d, want %d; the shape does not hold", peak, tc.peak)
			}
			if len(s.arenas) == 0 || len(s.arenas) > peak {
				t.Errorf("free list holds %d arenas after the run; want 1..%d (peak active streams)",
					len(s.arenas), peak)
			}
		})
	}
}
