package core

import (
	"sync/atomic"

	"repro/internal/mpi"
)

// The analytic fast-forward (default on, owned by internal/mpi) produces
// byte-identical results (DESIGN.md §11): event chains that provably cannot
// interact with any other pending event run inline at their exact
// (time, scheduling-time) position via sim.Engine.AbsorbAsOf — the engine
// absorbs an event only when every queued event orders strictly after it,
// i.e. the absorbed event is literally the one dispatch would pop next. On
// top of it the RMA port parks a provably-failing first lock check at issue
// and resolves same-position grants inside the wake that discovered them.
// Every surviving event keeps its literal key and every RNG draw its host
// order, so the mechanism needs no eligibility gating at all.
//
// The switch is not part of Config (nor of any cache key derived from it);
// it exists for the differential oracle in fastforward_test.go and for CI's
// forced-on/forced-off golden shards.

// FastForwardEnabled reports the analytic fast-forward switch.
func FastForwardEnabled() bool { return mpi.FastForwardEnabled() }

// SetFastForward sets the analytic fast-forward switch and returns the
// previous value. It exists for the differential tests and CI shards that
// compare the fast-forward and literal execution paths; both produce
// byte-identical results, so flipping it never changes observable output.
func SetFastForward(on bool) bool { return mpi.SetFastForward(on) }

// lastRunPushes records the main engine's queue-insertion count of the most
// recent MPI+MPI run. It instruments the fast-forward event census in
// fastforward_test.go: wall-clock comparisons drown in host noise, but the
// number of engine events a cell costs is deterministic per configuration.
var lastRunPushes atomic.Uint64
