package sim

import (
	"testing"
)

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Schedule(5, func() {
		e.After(2.5, func() { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 7.5 {
		t.Fatalf("After fired at %v, want 7.5", at)
	}
}

// TestEventCallbackCanSpawn checks that a callback can start a new machine
// mid-run, the way World.Launch starts ranks from engine events.
func TestEventCallbackCanSpawn(t *testing.T) {
	e := NewEngine(1)
	var done Time
	e.Schedule(3, func() {
		e.After(1, func() { done = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 4 {
		t.Fatalf("late machine finished at %v, want 4", done)
	}
}

// TestMassiveProcCount runs 4096 machines with interleaved waits: it
// stresses every queue layout.
func TestMassiveProcCount(t *testing.T) {
	e := NewEngine(1)
	finished := 0
	for i := 0; i < 4096; i++ {
		d := Time(i%17+1) * Microsecond
		chain(e, []Time{d, d, d, d, d}, nil, func() { finished++ })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != 4096 {
		t.Fatalf("finished = %d", finished)
	}
}

func TestDurationConstants(t *testing.T) {
	if Second != 1 || Millisecond != 1e-3 || Microsecond != 1e-6 || Nanosecond != 1e-9 {
		t.Fatal("duration constants wrong")
	}
}
