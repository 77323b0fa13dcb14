package sim

import (
	"testing"
)

// Kernel microbenchmarks for the discrete-event hot path. Run with
//
//	go test ./internal/sim -bench Kernel -benchmem
//
// The alloc columns are the regression signal: scheduling a prebuilt step
// must report ~0 allocs/op in steady state.

// stepper is a continuation machine that reschedules its prebuilt step d
// later until it has taken n steps.
func stepper(e *Engine, n int, d Time) {
	k := 0
	var step func()
	step = func() {
		if k++; k < n {
			e.After(d, step)
		}
	}
	e.Schedule(0, step)
}

// BenchmarkKernelScheduleCallback measures one machine stepping repeatedly:
// the pure event-queue cost (front-buffer push and pop).
func BenchmarkKernelScheduleCallback(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	stepper(e, b.N, Microsecond)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelPingPong measures two machines alternating.
func BenchmarkKernelPingPong(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	for i := 0; i < 2; i++ {
		stepper(e, b.N/2+1, Microsecond)
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelManyProcs stresses the queue with 256 interleaved
// machines, the shape of a 16-node × 16-rank simulation.
func BenchmarkKernelManyProcs(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	const machines = 256
	per := b.N/machines + 1
	for i := 0; i < machines; i++ {
		stepper(e, per, Time(i%17+1)*Microsecond)
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
