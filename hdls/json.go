package hdls

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/jsonenum"
)

// Summary is the compact per-cell outcome returned by RunSummary: scalars
// only (parallel time, imbalance, chunk and lock counters), no per-worker
// slices, so sweep drivers and the hdlsd service aggregate incrementally.
// It marshals to stable snake_case JSON.
type Summary = core.Summary

// ParseApproach maps an approach name ("mpi+mpi", "MPI+OpenMP", "nowait",
// …) to its Approach value, case-insensitively.
func ParseApproach(s string) (Approach, error) { return core.ParseApproach(s) }

// MarshalJSON encodes the application as its name ("Mandelbrot",
// "PSIA"), quoted directly without a nested json.Marshal.
func (a App) MarshalJSON() ([]byte, error) {
	switch a {
	case Mandelbrot, PSIA:
		return jsonenum.Marshal(a.String()), nil
	}
	return nil, fmt.Errorf("hdls: cannot marshal unknown app %d", int(a))
}

// UnmarshalJSON decodes an application from any spelling ParseApp
// accepts. A plain quoted name goes straight to ParseApp; escaped strings,
// null and non-strings are decoded by json.Unmarshal first, so every input
// keeps the same result and error text.
func (a *App) UnmarshalJSON(data []byte) error {
	v, err := jsonenum.Unmarshal(data, "hdls: app", ParseApp)
	if err != nil {
		return err
	}
	*a = v
	return nil
}

// Canonical returns the configuration with every defaulted field made
// explicit (Nodes 4, WorkersPerNode 16, Scale 8, Seed 1) and every field
// that cannot affect a Summary cleared (CollectTrace). Two configurations
// that run the same experiment therefore compare equal after Canonical,
// and Hash — which hashes the canonical form — identifies a cell's result:
// simulations are bit-deterministic functions of the canonical config, so
// equal hashes mean byte-identical summaries. hdlsd keys its result cache
// on exactly this property.
func (c Config) Canonical() Config {
	out := c.withDefaults()
	out.CollectTrace = false
	return out
}

// Hash returns a hex SHA-256 digest of the canonical configuration,
// stable across processes. The programmatic Profile override — excluded
// from the JSON form — is folded in by content (name and per-iteration
// costs), so two configs with different in-memory profiles never collide.
func (c Config) Hash() string {
	canon := c.Canonical()
	h := sha256.New()
	buf, err := json.Marshal(canon)
	if err != nil {
		// Only unknown enum values can fail to marshal; make the hash
		// reflect the raw values rather than masking the bad config.
		fmt.Fprintf(h, "unmarshalable:%#v", canon)
	}
	h.Write(buf)
	if canon.Profile != nil {
		h.Write([]byte{0})
		h.Write([]byte(canon.Profile.Name()))
		h.Write([]byte{0})
		var w [8]byte
		for _, cost := range canon.Profile.Costs() {
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(cost))
			h.Write(w[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// HashKey returns the first eight bytes of Hash as a big-endian uint64: a
// uniformly distributed routing key for placing cells on consistent-hash
// rings (internal/fleet). Equal canonical configs map to equal keys, so a
// fleet routes every resubmission of a cell to the same worker and that
// worker's result cache stays hot; HashKeyOf recovers the same key from a
// hash string a client already holds.
func (c Config) HashKey() uint64 { return hashKeyOf(c.Hash()) }

// HashKeyOf returns the routing key (see HashKey) embedded in a Config.Hash
// string. Malformed strings hash to 0; routing stays well-defined either
// way because the ring only needs consistency, not collision resistance.
func HashKeyOf(hash string) uint64 { return hashKeyOf(hash) }

func hashKeyOf(hash string) uint64 {
	if len(hash) < 16 {
		return 0
	}
	b, err := hex.DecodeString(hash[:16])
	if err != nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Validate checks the configuration without running it: machine sizes,
// workload spec syntax, technique support at each level, and the paper's
// OpenMP-runtime constraint (TSS/FAC2 intra need ExtendedRuntime). It
// returns the same errors Run would, so services can map them to 400s
// before committing simulation time.
func (c Config) Validate() error {
	cc, err := coreConfig(c)
	if err != nil {
		return err
	}
	return cc.Validate()
}
