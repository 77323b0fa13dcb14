// Package repro is a from-scratch Go reproduction of
//
//	A. Eleliemy and F. M. Ciorba,
//	"Hierarchical Dynamic Loop Self-Scheduling on Distributed-Memory
//	Systems Using an MPI+MPI Approach", arXiv:1903.09510 (IPDPSW 2019).
//
// Public API:
//
//   - repro/dls — the dynamic loop self-scheduling techniques (STATIC, SS,
//     FSC, GSS, TSS, FAC, FAC2, WF, TFSS, AWF-B/C/D/E, AF, RND) in both
//     sequential and step-indexed (distributed chunk calculation) form.
//   - repro/parallel — self-scheduled parallel loops for real Go programs.
//   - repro/hdls — the paper's experiments: hierarchical MPI+MPI vs.
//     MPI+OpenMP executors on a simulated miniHPC cluster, whole-figure
//     sweeps (Figures 4–7), the scenario engine (heterogeneous topologies,
//     perturbations, synthetic workloads) with robustness sweeps
//     (RunRobustness), and the service surface: JSON (un)marshalling,
//     canonical config hashing (Config.Hash) and validation.
//
// Entry points: cmd/hdlsim runs one diagnosed experiment, cmd/hdlsweep
// regenerates figures and robustness sweeps, cmd/hdlsd serves sweeps as a
// long-running HTTP daemon (bounded worker pool, canonical-hash result
// cache, NDJSON streaming, Prometheus metrics, graceful drain) — or, with
// -role coordinator, shards sweeps across a fleet of worker daemons with
// consistent-hash routing, retries, and circuit breakers while keeping
// responses byte-identical to a single daemon's — and cmd/psiagen runs
// the real application kernels on the host.
//
// The substrates live under internal/: a deterministic callback-driven
// discrete-event engine (internal/sim), the machine model
// (internal/cluster), an MPI-3 runtime model with shared-memory windows and
// lock-polling passive-target RMA (internal/mpi), an OpenMP runtime model
// (internal/openmp), the hierarchical executors (internal/core), scenario
// perturbations (internal/perturb), the HTTP service layer
// (internal/serve), the fleet coordinator (internal/fleet), and the real
// application kernels (internal/mandelbrot, internal/spinimage) whose
// measured per-iteration work builds the workload profiles
// (internal/workload).
//
// The benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation; see EXPERIMENTS.md for the measured-vs-paper record,
// DESIGN.md for the architecture and substitution rationale, and README.md
// for the 60-second tour.
package repro
