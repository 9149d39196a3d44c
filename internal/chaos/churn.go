package chaos

import (
	"fmt"
	"math/rand"
	"time"
)

// Membership-churn campaigns: seeded schedules of join/leave/kill/
// restart events applied to a cluster's backends while load flows.
// This is the mobile-omission adversary lifted from message schedules
// to membership — the fault set is not fixed at boot, it moves — and
// the availability claim under test is the one DESIGN.md §3d makes:
// with replicas ≥ 2 and at most one member disrupted at a time, keyed
// requests keep answering through every epoch change.

// ChurnKind is one membership disruption verb.
type ChurnKind int

const (
	// ChurnKill makes a backend unreachable in place (transport errors,
	// failed probes) without telling the coordinator — the prober must
	// notice, eject, and later readmit it.
	ChurnKill ChurnKind = iota
	// ChurnRestart undoes a ChurnKill: the backend answers again at the
	// same address, typically cold.
	ChurnRestart
	// ChurnLeave removes a backend via the admin API — a clean,
	// coordinated departure (new epoch, no probe involvement).
	ChurnLeave
	// ChurnJoin (re)introduces a backend via the admin API as a member
	// of a fresh epoch.
	ChurnJoin
)

func (k ChurnKind) String() string {
	switch k {
	case ChurnKill:
		return "kill"
	case ChurnRestart:
		return "restart"
	case ChurnLeave:
		return "leave"
	case ChurnJoin:
		return "join"
	default:
		return fmt.Sprintf("ChurnKind(%d)", int(k))
	}
}

// ChurnEvent is one scheduled disruption: At after campaign start,
// Kind applied to backend index Target.
type ChurnEvent struct {
	At     time.Duration
	Kind   ChurnKind
	Target int
}

func (e ChurnEvent) String() string {
	return fmt.Sprintf("%s@%s→backend[%d]", e.Kind, e.At, e.Target)
}

// ChurnPlan parameterizes a schedule.
type ChurnPlan struct {
	// Backends is the cluster size; events target indices [0, Backends).
	Backends int
	// Duration is the campaign window; every event lands strictly inside
	// it, with recovery events leaving slack for the prober to readmit.
	Duration time.Duration
	// Pairs is how many disrupt/recover pairs to schedule (default 2).
	// Each pair is either kill+restart (prober path) or leave+join
	// (admin path), chosen by the seed.
	Pairs int
}

// ChurnSchedule derives a deterministic membership-churn schedule from
// seed. The schedule maintains the invariant the availability bar
// depends on: at most ONE backend is disrupted at any instant (each
// disruption is recovered before the next begins), so a replicas ≥ 2
// cluster always has a healthy replica for every key. Events come back
// sorted by At.
func ChurnSchedule(seed int64, plan ChurnPlan) []ChurnEvent {
	if plan.Backends < 2 {
		return nil // disrupting a 1-node cluster just measures downtime
	}
	if plan.Pairs <= 0 {
		plan.Pairs = 2
	}
	if plan.Duration <= 0 {
		plan.Duration = 10 * time.Second
	}
	rng := rand.New(rand.NewSource(DeriveSeed(seed, 777)))

	// Carve the window: the first and last 15% stay quiet (warmup for a
	// healthy baseline, cooldown for readmission to complete), and each
	// pair owns an equal slice of the middle so disruptions never
	// overlap.
	quiet := plan.Duration * 15 / 100
	active := plan.Duration - 2*quiet
	slice := active / time.Duration(plan.Pairs)

	events := make([]ChurnEvent, 0, 2*plan.Pairs)
	for p := 0; p < plan.Pairs; p++ {
		sliceStart := quiet + time.Duration(p)*slice
		// Down in the first third of the slice, up in the middle third:
		// the final third is slack for the prober to converge
		// before the next pair begins.
		down := sliceStart + time.Duration(rng.Int63n(int64(slice/3)))
		up := sliceStart + slice/3 + time.Duration(rng.Int63n(int64(slice/3)))
		target := rng.Intn(plan.Backends)
		if rng.Intn(2) == 0 {
			events = append(events,
				ChurnEvent{At: down, Kind: ChurnKill, Target: target},
				ChurnEvent{At: up, Kind: ChurnRestart, Target: target})
		} else {
			events = append(events,
				ChurnEvent{At: down, Kind: ChurnLeave, Target: target},
				ChurnEvent{At: up, Kind: ChurnJoin, Target: target})
		}
	}
	return events
}
