// Config.Hash golden: the canonical hash of one config per result-affecting
// axis, frozen as hex. Every hdlsd cell line carries this hash and every
// disk tier is keyed by it, so a silent change would orphan every stored
// result; the other hash tests only compare hashes with each other.
package hdls_test

import (
	"flag"
	"fmt"
	"testing"

	"repro/dls"
	"repro/hdls"
	"repro/internal/workload"
)

var printHashGolden = flag.Bool("print-hash-golden", false,
	"print the current Config.Hash golden table instead of asserting")

// hashCase is one named config of the hash golden.
type hashCase struct {
	name string
	cfg  hdls.Config
}

// hashGoldenCases lists the frozen configs: every technique at both
// levels, every approach and app, each optional section set, a profile
// override, the bench's cell shapes, and a config whose enum cannot
// marshal (Hash falls back to the raw values).
func hashGoldenCases() []hashCase {
	cases := []hashCase{
		{"zero", hdls.Config{}},
		{"explicit-defaults", hdls.Config{Nodes: 4, WorkersPerNode: 16, Scale: 8, Seed: 1}},
		{"collect-trace", hdls.Config{CollectTrace: true}},
	}
	for _, t := range dls.All() {
		cases = append(cases,
			hashCase{"inter=" + t.String(), hdls.Config{Inter: t}},
			hashCase{"intra=" + t.String(), hdls.Config{Intra: t}})
	}
	for _, ap := range []hdls.Approach{hdls.MPIMPI, hdls.MPIOpenMP, hdls.MPIOpenMPNoWait} {
		cases = append(cases, hashCase{"approach=" + ap.String(), hdls.Config{Approach: ap}})
	}
	for _, app := range []hdls.App{hdls.Mandelbrot, hdls.PSIA} {
		cases = append(cases, hashCase{"app=" + app.String(), hdls.Config{App: app}})
	}
	return append(cases,
		hashCase{"sizes", hdls.Config{Nodes: 16, WorkersPerNode: 32, Scale: 1, Seed: -7}},
		hashCase{"workload", hdls.Config{Workload: "gaussian:n=8192,cv=0.5"}},
		hashCase{"topology", hdls.Config{Topology: hdls.Topology{
			NodeSpeeds: []float64{1, 0.5}, NodeCores: []int{16, 64}}}},
		hashCase{"perturbation", hdls.Config{Perturbation: hdls.Perturbation{
			NoiseCV: 0.1, SlowdownRate: 2, SlowdownFactor: 3, SlowdownDuration: 0.01}}},
		hashCase{"noise-cv", hdls.Config{NoiseCV: 0.05}},
		hashCase{"extended-runtime", hdls.Config{
			Intra: dls.TSS, Approach: hdls.MPIOpenMP, ExtendedRuntime: true}},
		hashCase{"profile", hdls.Config{Profile: workload.Constant(64, 1e-6)}},
		hashCase{"profile+workload", hdls.Config{
			Profile: workload.Constant(64, 2e-6), Workload: "constant:n=64"}},
		hashCase{"all-sections", hdls.Config{
			App: hdls.PSIA, Nodes: 8, WorkersPerNode: 32,
			Inter: dls.FAC2, Intra: dls.SS, Approach: hdls.MPIOpenMP,
			Scale: 16, Seed: 42, Workload: "gaussian:n=1024,cv=0.3",
			Topology: hdls.Topology{NodeSpeeds: []float64{1, 0.5}, NodeCores: []int{16, 64}},
			Perturbation: hdls.Perturbation{
				NoiseCV: 0.1, SlowdownRate: 2, SlowdownFactor: 3, SlowdownDuration: 0.01},
			NoiseCV: 0.05, ExtendedRuntime: true,
		}},
		hashCase{"grid-cell", hdls.Config{
			App: hdls.PSIA, Nodes: 16, Inter: dls.TSS, Intra: dls.SS,
			Approach: hdls.MPIMPI, Scale: 64, Seed: 1}},
		hashCase{"small-cell", hdls.Config{
			Nodes: 2, WorkersPerNode: 4, Inter: dls.FAC2, Intra: dls.GSS,
			Approach: hdls.MPIOpenMP, Workload: "constant:n=2048", Seed: 987654321}},
		hashCase{"inter=unknown", hdls.Config{Inter: dls.Technique(99)}},
	)
}

func TestConfigHashGolden(t *testing.T) {
	cases := hashGoldenCases()
	if *printHashGolden {
		fmt.Println("var hashGoldenWant = map[string]string{")
		for _, c := range cases {
			fmt.Printf("\t%q: %q,\n", c.name, c.cfg.Hash())
		}
		fmt.Println("}")
		return
	}
	if len(cases) != len(hashGoldenWant) {
		t.Errorf("%d golden cases, %d golden hashes (run with -print-hash-golden)",
			len(cases), len(hashGoldenWant))
	}
	for _, c := range cases {
		want, ok := hashGoldenWant[c.name]
		if !ok {
			t.Errorf("%s: no golden hash (run with -print-hash-golden)", c.name)
			continue
		}
		if got := c.cfg.Hash(); got != want {
			t.Errorf("%s: Hash() = %s, want %s", c.name, got, want)
		}
	}
}
