package hdls_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/dls"
	"repro/hdls"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := hdls.Config{
		App: hdls.PSIA, Nodes: 8, WorkersPerNode: 32,
		Inter: dls.FAC2, Intra: dls.SS, Approach: hdls.MPIOpenMP,
		Scale: 16, Seed: 42, Workload: "gaussian:n=1024,cv=0.3",
		Topology:     hdls.Topology{NodeSpeeds: []float64{1, 0.5}, NodeCores: []int{16, 64}},
		Perturbation: hdls.Perturbation{NoiseCV: 0.1, SlowdownRate: 2, SlowdownFactor: 3, SlowdownDuration: 0.01},
		NoiseCV:      0.05, ExtendedRuntime: true,
	}
	buf, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"app":"PSIA"`, `"inter":"FAC2"`, `"intra":"SS"`,
		`"approach":"MPI+OpenMP"`, `"node_speeds":[1,0.5]`, `"slowdown_rate":2`} {
		if !strings.Contains(string(buf), want) {
			t.Errorf("marshaled config missing %s:\n%s", want, buf)
		}
	}
	var back hdls.Config
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Hash() != cfg.Hash() {
		t.Fatalf("round trip changed the canonical hash\n in: %s\nout: %s", buf, mustJSON(t, back))
	}

	// The zero config stays small: defaults are omitted, enums are named.
	zero, err := json.Marshal(hdls.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"app":"Mandelbrot","inter":"STATIC","intra":"STATIC","approach":"MPI+MPI"}`
	if string(zero) != want {
		t.Errorf("zero config marshals to %s, want %s", zero, want)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func TestCanonicalHash(t *testing.T) {
	// Spelled-out defaults and the zero config are the same experiment.
	explicit := hdls.Config{Nodes: 4, WorkersPerNode: 16, Scale: 8, Seed: 1}
	if explicit.Hash() != (hdls.Config{}).Hash() {
		t.Error("defaulted config should hash like the zero config")
	}
	// CollectTrace cannot change a summary, so it cannot change the hash.
	if (hdls.Config{CollectTrace: true}).Hash() != (hdls.Config{}).Hash() {
		t.Error("CollectTrace should not affect the hash")
	}
	// Every result-affecting axis must move the hash.
	base := hdls.Config{}
	for name, c := range map[string]hdls.Config{
		"seed":      {Seed: 2},
		"nodes":     {Nodes: 8},
		"inter":     {Inter: dls.GSS},
		"approach":  {Approach: hdls.MPIOpenMP},
		"workload":  {Workload: "constant:n=64"},
		"topology":  {Topology: hdls.Topology{NodeSpeeds: []float64{1, 0.5}}},
		"perturb":   {Perturbation: hdls.Perturbation{NoiseCV: 0.2}},
		"noise":     {NoiseCV: 0.1},
		"extended":  {ExtendedRuntime: true},
		"intrachng": {Intra: dls.SS},
	} {
		if c.Hash() == base.Hash() {
			t.Errorf("%s: config change did not change the hash", name)
		}
	}
	// Distinct in-memory profiles must hash apart even though JSON drops them.
	p1 := hdls.Config{Profile: workload.Constant(64, 1e-6)}
	p2 := hdls.Config{Profile: workload.Constant(64, 2e-6)}
	if p1.Hash() == p2.Hash() {
		t.Error("distinct profiles should hash apart")
	}
	if p1.Hash() == base.Hash() {
		t.Error("a profile override should hash apart from the app default")
	}
}

func TestValidateMatchesRun(t *testing.T) {
	bad := []hdls.Config{
		{Nodes: -1},
		{Workload: "nosuchkind:n=8"},
		{Inter: dls.AWFB},                          // weighted/adaptive unsupported at the inter level
		{Intra: dls.TSS, Approach: hdls.MPIOpenMP}, // stock runtime limitation
	}
	for i, cfg := range bad {
		verr := cfg.Validate()
		if verr == nil {
			t.Errorf("config %d: Validate passed, want error", i)
			continue
		}
		if _, rerr := hdls.RunSummary(cfg); rerr == nil {
			t.Errorf("config %d: Validate failed (%v) but RunSummary passed", i, verr)
		}
	}
	good := hdls.Config{Nodes: 2, WorkersPerNode: 4, Workload: "constant:n=128"}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// sameAsMarshal fails t unless c.AppendJSON appends exactly the bytes of
// json.Marshal(c), and fails exactly when json.Marshal fails.
func sameAsMarshal(t *testing.T, c hdls.Config) {
	t.Helper()
	want, wantErr := json.Marshal(c)
	prefix := []byte("prefix:")
	got, err := c.AppendJSON(prefix)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Errorf("%+v: AppendJSON error %v, json.Marshal error %v", c, err, wantErr)
	case err == nil && !bytes.Equal(got, append(prefix, want...)):
		t.Errorf("AppendJSON appended\n%s\njson.Marshal wrote\n%s", got[len(prefix):], want)
	}
}

// TestAppendJSONMatchesMarshal holds the reflection-free encoder to
// json.Marshal on the cases it must get exactly right: floats on both
// sides of the 1e-6 and 1e21 format switches, negative zero, NaN and
// infinities, strings that need escaping, unknown enums, and the
// omitzero sections with empty and non-nil-but-empty slices.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	cells := []hdls.Config{
		{},
		{App: hdls.PSIA, Nodes: 16, WorkersPerNode: 32, Inter: dls.AWFB, Intra: dls.FAC2,
			Approach: hdls.MPIOpenMPNoWait, Scale: 64, Seed: math.MinInt64, Workload: "constant:n=2048",
			ExtendedRuntime: true, CollectTrace: true, NoiseCV: 0.05},
		{Nodes: -3, WorkersPerNode: math.MaxInt, Scale: -1, Seed: math.MaxInt64},
		{App: hdls.App(7)},
		{Inter: dls.Technique(99)},
		{Intra: dls.Technique(-1)},
		{Approach: hdls.Approach(42)},
		{Workload: `a"b\c`}, {Workload: "<&>"}, {Workload: "tab\t"}, {Workload: "é"},
		{Workload: "\xff"}, {Workload: "\u2028"}, {Workload: "\x7f"}, {Workload: " ~"},
		{Topology: hdls.Topology{NodeSpeeds: []float64{}}},
		{Topology: hdls.Topology{NodeCores: []int{}}},
		{Topology: hdls.Topology{NodeSpeeds: []float64{1, 0.5, 1e-7, 1e21}, NodeCores: []int{16, 64}}},
		{Topology: hdls.Topology{NodeSpeeds: []float64{math.NaN()}}},
		{Perturbation: hdls.Perturbation{BackgroundLoad: []float64{}}},
		{Perturbation: hdls.Perturbation{NoiseCV: math.Copysign(0, -1)}},
		{Perturbation: hdls.Perturbation{Seed: -1}},
		{Perturbation: hdls.Perturbation{SlowdownRate: 2, SlowdownFactor: 3, SlowdownDuration: 0.01,
			BackgroundLoad: []float64{0.1, 0}}},
		{Perturbation: hdls.Perturbation{SlowdownDuration: sim.Time(math.Inf(1))}},
	}
	for _, f := range []float64{
		math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, -9.99e-7, 1e-7, 1.5e-10, 5e-324,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1.5e300, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		cells = append(cells, hdls.Config{NoiseCV: f})
	}
	for _, c := range cells {
		sameAsMarshal(t, c)
		sameAsMarshal(t, c.Canonical())
	}
}
