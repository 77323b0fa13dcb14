package main

import (
	"container/heap"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Host normalization. On small shared hosts the speed a run gets drifts by
// 20-40% over seconds to minutes, and every workload's throughput, latency
// and CPU time per cell move together with it. Two effects cause it, and
// each is measured on its own:
//
//   - The hypervisor runs other guests on the host's cores: the guest's
//     runnable time is stolen, wall time stretches and CPU time does not.
//     /proc/stat counts the stolen time; stealFactor turns it into the
//     stretch of each measured segment.
//   - Other tenants share the cores' caches and memory bandwidth, and each
//     instruction takes longer, CPU time included. A fixed reference
//     kernel, timed in CPU time between the segments while the daemons are
//     idle, tracks that.
//
// The kernel uses only the standard library, never the code under test, so
// a change to the repository moves the measured metrics but not the
// reference. README.md gives the A/A spreads with and without each
// correction, and with cliutil.CalibScore as the kernel.

// refNominal is the reference's nominal CPU time. Time-based end-to-end
// metrics are reported as if the reference had taken exactly this long and
// no time had been stolen.
const refNominal = 100 * time.Millisecond

// refEvents is how many events one kernel run processes: about refNominal
// on a 2-core Xeon VM.
const refEvents = 220_000

// refTable is the kernel's counter table: 2^18 entries, a few MiB, so the
// kernel's memory traffic leaves the core's caches as the daemons' does.
const refTable = 1 << 18

type refEvent struct {
	t  float64
	id int
}

type refQueue []refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].t < q[j].t }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// refKernel runs a discrete-event-shaped loop — a 256-event binary heap, a
// random delay and a counter-table update per event — and returns a
// checksum that keeps the work alive.
func refKernel() int {
	rng := rand.New(rand.NewSource(1))
	q := &refQueue{}
	for i := 0; i < 256; i++ {
		heap.Push(q, refEvent{rng.Float64(), i})
	}
	counts := map[int]int{}
	for i := 0; i < refEvents; i++ {
		e := heap.Pop(q).(refEvent)
		counts[(e.id*7919+i*104729)%refTable]++
		heap.Push(q, refEvent{e.t + rng.Float64(), e.id})
	}
	return len(counts)
}

// hostRef runs one copy of the kernel per core at once, as the daemons
// load every core, and returns the CPU time one copy took. A single copy
// measures only the core it lands on; on a 2-core VM whose cores slowed
// unevenly that tracked the measured workloads less closely.
func hostRef() time.Duration {
	n := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	sums := make([]int, n)
	start := selfCPU()
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = refKernel()
		}(i)
	}
	wg.Wait()
	took := (selfCPU() - start) / time.Duration(n)
	for _, s := range sums {
		sink = s
	}
	return took
}

// cpuTicks is the host's CPU accounting at one instant, in clock ticks
// summed over all CPUs: time spent running (user, nice, system, irq,
// softirq) and time stolen by the hypervisor while runnable.
type cpuTicks struct{ busy, steal int64 }

// hostTicks reads the aggregate "cpu" line of /proc/stat.
func hostTicks() (cpuTicks, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return cpuTicks{}, fmt.Errorf("/proc/stat: %w", err)
		}
	}
	// user nice system idle iowait irq softirq steal
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// stealFactor is how much longer runnable work took between two readings
// than it would have without stolen time: (busy + steal) / busy. Steal
// accrues only while a CPU is runnable, so idle time does not dilute it.
func stealFactor(before, after cpuTicks) float64 {
	busy, steal := after.busy-before.busy, after.steal-before.steal
	if busy <= 0 {
		return 1
	}
	return float64(busy+steal) / float64(busy)
}
