package hdls_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/dls"
	"repro/hdls"
	"repro/internal/checks"
	"repro/internal/core"
	"repro/internal/workload"
)

// fuzzCells are the configs that seed FuzzConfigHash: the paper's
// 256-cell bench grid, the benchmark's small cells, and one config per
// optional section.
func fuzzCells(f *testing.F) []hdls.Config {
	cells, err := checks.GridCells([]int{4, 5, 6, 7}, []int{2, 4, 8, 16}, 64, 1)
	if err != nil {
		f.Fatal(err)
	}
	inters := []dls.Technique{dls.STATIC, dls.GSS, dls.TSS, dls.FAC2}
	for i := 0; i < 8; i++ {
		ap := hdls.MPIMPI
		if i%2 == 1 {
			ap = hdls.MPIOpenMP
		}
		cells = append(cells, hdls.Config{
			Nodes: 2, WorkersPerNode: 4, Inter: inters[i%len(inters)], Intra: dls.GSS,
			Approach: ap, Workload: "constant:n=2048", Seed: int64(1000003 * (i + 1)),
		})
	}
	return append(cells,
		hdls.Config{},
		hdls.Config{Workload: "gaussian:n=1024,cv=0.3", Seed: 9},
		hdls.Config{Nodes: 2, Topology: hdls.Topology{NodeSpeeds: []float64{1, 0.5}, NodeCores: []int{16, 8}}},
		hdls.Config{Nodes: 2, Perturbation: hdls.Perturbation{NoiseCV: 0.1, SlowdownRate: 2, SlowdownFactor: 3, SlowdownDuration: 0.01}},
		hdls.Config{Nodes: 2, NoiseCV: 0.05, CollectTrace: true},
		hdls.Config{Nodes: 2, Intra: dls.TSS, Approach: hdls.MPIOpenMP, ExtendedRuntime: true},
	)
}

// decodeStrict decodes one config the way hdlsd does: unknown fields are
// errors.
func decodeStrict(data []byte, cfg *hdls.Config) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(cfg)
}

// fuzzAffordable bounds what the hash target validates. hdlsd bounds
// request sizes before validating (serve's CheckCell); these tighter
// bounds keep the fuzzer on the codec instead of on building big machine
// models, and keep app-profile cells to the memoized default and grid
// scales, since every other scale would build and retain a new profile.
func fuzzAffordable(c hdls.Config) bool {
	if c.Nodes > 64 || c.WorkersPerNode > 64 || len(c.Topology.NodeSpeeds) > 64 || len(c.Topology.NodeCores) > 64 {
		return false
	}
	for _, cores := range c.Topology.NodeCores {
		if cores > 1024 {
			return false
		}
	}
	if c.Workload != "" {
		n, err := workload.SpecN(c.Workload)
		return err != nil || n <= 1<<16
	}
	return c.Scale == 0 || c.Scale == 8 || c.Scale == 64
}

// FuzzConfigHash checks the canonicalization that hdlsd's result store
// keys on. For every config that decodes strictly, AppendJSON appends the
// bytes of json.Marshal and fails exactly when it does, for the config and
// its canonical form. For every one that also validates, the hash
// survives a marshal/decode round trip, equals the hash of its canonical
// form, and Canonical is idempotent.
func FuzzConfigHash(f *testing.F) {
	for _, c := range fuzzCells(f) {
		buf, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	for _, s := range []string{`null`, `1`, `"GSS"`, `{}`,
		`{"inter":"fac2","intra":"Awf-B","approach":"mpi-openmp","app":"psia"}`,
		`{"inter":"\u0047SS","approach":"NoWait","nodes":2,"workload":"constant:n=64"}`,
		`{"app":"spin-image","scale":64,"seed":-3,"noise_cv":0.25}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg hdls.Config
		if decodeStrict(data, &cfg) != nil {
			return
		}
		sameAsMarshal(t, cfg)
		sameAsMarshal(t, cfg.Canonical())
		if !fuzzAffordable(cfg) || cfg.Validate() != nil {
			return
		}
		hash := cfg.Hash()
		buf, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("valid config does not marshal: %v", err)
		}
		var back hdls.Config
		if err := decodeStrict(buf, &back); err != nil {
			t.Fatalf("marshaled config does not decode: %v\n%s", err, buf)
		}
		if got := back.Hash(); got != hash {
			t.Fatalf("round trip moved the hash %s → %s\n in: %s\nout: %s", hash, got, data, buf)
		}
		canon := cfg.Canonical()
		if got := canon.Hash(); got != hash {
			t.Fatalf("Canonical().Hash() = %s, Hash() = %s for %s", got, hash, data)
		}
		if again := canon.Canonical(); !reflect.DeepEqual(again, canon) {
			t.Fatalf("Canonical not idempotent for %s:\n%+v\n%+v", data, canon, again)
		}
	})
}

// referenceEnum is what every enum's UnmarshalJSON did before it had a
// fast path: decode a JSON string with json.Unmarshal, then parse it.
func referenceEnum[T any](data []byte, what string, parse func(string) (T, error)) (T, error) {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		var zero T
		return zero, fmt.Errorf("%s must be a JSON string: %w", what, err)
	}
	return parse(s)
}

// sameEnumResult fails t unless got/gotErr match the reference result.
func sameEnumResult[T comparable](t *testing.T, kind string, data []byte, got T, gotErr error, want T, wantErr error) {
	t.Helper()
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s %q: error %v, reference error %v", kind, data, gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s %q: error text %q, reference %q", kind, data, gotErr, wantErr)
	case gotErr == nil && got != want:
		t.Fatalf("%s %q: decoded %v, reference %v", kind, data, got, want)
	}
}

// FuzzEnumJSON checks that the three enum decoders accept, reject and
// word their errors exactly like the json.Unmarshal-then-parse reference
// for any input, and that every defined value marshals to
// json.Marshal(v.String()).
func FuzzEnumJSON(f *testing.F) {
	var names []string
	marshals := func(v interface {
		json.Marshaler
		fmt.Stringer
	}) {
		got, err := v.MarshalJSON()
		want, _ := json.Marshal(v.String())
		if err != nil || !bytes.Equal(got, want) {
			f.Fatalf("%v.MarshalJSON() = %s, %v; want %s", v, got, err, want)
		}
		names = append(names, v.String())
	}
	for _, t := range dls.All() {
		marshals(t)
	}
	for _, a := range []core.Approach{core.MPIMPI, core.MPIOpenMP, core.MPIOpenMPNoWait} {
		marshals(a)
	}
	for _, a := range []hdls.App{hdls.Mandelbrot, hdls.PSIA} {
		marshals(a)
	}
	for _, n := range names {
		f.Add([]byte(`"` + n + `"`))
		f.Add([]byte(`"` + strings.ToLower(n) + `"`))
		f.Add([]byte(`"` + strings.ReplaceAll(strings.ToLower(n), "+", "-") + `"`))
	}
	for _, s := range []string{`null`, `1`, `"GSS"`, `"AwF-b"`, `"awfb"`, `"-F-A-C-2-"`, `" fac2 "`,
		`"mpi_mpi"`, `"Mpi-OpenMP"`, `"NoWait"`, `"spin-image"`, `"Mandel"`, `"\u0047SS"`, `"G\"SS"`,
		`""`, `"é"`, "\"\xff\"", "\"\x7f\"", "\"tab\t\"", `true`, `{}`, `[]`, `"GSS" `, ` "GSS"`, `"GSS"x`, `"`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tech dls.Technique
		err := tech.UnmarshalJSON(data)
		wantTech, wantErr := referenceEnum(data, "dls: technique", dls.Parse)
		sameEnumResult(t, "Technique", data, tech, err, wantTech, wantErr)

		var ap core.Approach
		err = ap.UnmarshalJSON(data)
		wantAp, wantErr := referenceEnum(data, "core: approach", core.ParseApproach)
		sameEnumResult(t, "Approach", data, ap, err, wantAp, wantErr)

		var app hdls.App
		err = app.UnmarshalJSON(data)
		wantApp, wantErr := referenceEnum(data, "hdls: app", hdls.ParseApp)
		sameEnumResult(t, "App", data, app, err, wantApp, wantErr)
	})
}
