package hdls

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

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
// The JSON form is AppendJSON's, built in a stack buffer, so a plain
// config hashes with one sha256.Sum256 call.
func (c Config) Hash() string {
	canon := c.Canonical()
	var stack [256]byte
	buf, err := canon.AppendJSON(stack[:0])
	var sum [sha256.Size]byte
	if err == nil && canon.Profile == nil {
		sum = sha256.Sum256(buf)
	} else {
		h := sha256.New()
		if err != nil {
			// Only unknown enum values and non-finite floats fail to
			// marshal; make the hash reflect the raw values rather than
			// masking the bad config.
			fmt.Fprintf(h, "unmarshalable:%#v", canon)
		} else {
			h.Write(buf)
		}
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
		h.Sum(sum[:0])
	}
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
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

// AppendJSON appends the JSON form of c to dst and returns the extended
// buffer: exactly the bytes json.Marshal(c) produces, and an error exactly
// when json.Marshal(c) fails. It writes the fields in their tags' order
// under their omitempty and omitzero rules, encodes each enum with its own
// MarshalJSON, formats floats as encoding/json does and appends plain
// ASCII strings directly; other strings and the nested Topology and
// Perturbation sections go through json.Marshal. Config.Hash and the
// fleet's shard bodies encode cells here, without json.Marshal's
// reflection; FuzzConfigHash holds it to json.Marshal byte for byte.
func (c Config) AppendJSON(dst []byte) ([]byte, error) {
	var err error
	dst = append(dst, `{"app":`...)
	if dst, err = appendMarshaler(dst, c.App); err != nil {
		return dst, err
	}
	if c.Nodes != 0 {
		dst = strconv.AppendInt(append(dst, `,"nodes":`...), int64(c.Nodes), 10)
	}
	if c.WorkersPerNode != 0 {
		dst = strconv.AppendInt(append(dst, `,"workers_per_node":`...), int64(c.WorkersPerNode), 10)
	}
	if dst, err = appendMarshaler(append(dst, `,"inter":`...), c.Inter); err != nil {
		return dst, err
	}
	if dst, err = appendMarshaler(append(dst, `,"intra":`...), c.Intra); err != nil {
		return dst, err
	}
	if dst, err = appendMarshaler(append(dst, `,"approach":`...), c.Approach); err != nil {
		return dst, err
	}
	if c.Scale != 0 {
		dst = strconv.AppendInt(append(dst, `,"scale":`...), int64(c.Scale), 10)
	}
	if c.Seed != 0 {
		dst = strconv.AppendInt(append(dst, `,"seed":`...), c.Seed, 10)
	}
	if c.Workload != "" {
		if dst, err = appendString(append(dst, `,"workload":`...), c.Workload); err != nil {
			return dst, err
		}
	}
	// omitzero asks Topology's own IsZero; Perturbation has none, so it
	// is omitted when every field is zero and the slice is nil.
	if !c.Topology.IsZero() {
		if dst, err = appendMarshal(append(dst, `,"topology":`...), c.Topology); err != nil {
			return dst, err
		}
	}
	if p := c.Perturbation; p.NoiseCV != 0 || p.SlowdownRate != 0 || p.SlowdownFactor != 0 ||
		p.SlowdownDuration != 0 || p.BackgroundLoad != nil || p.Seed != 0 {
		if dst, err = appendMarshal(append(dst, `,"perturbation":`...), p); err != nil {
			return dst, err
		}
	}
	if c.ExtendedRuntime {
		dst = append(dst, `,"extended_runtime":true`...)
	}
	if c.CollectTrace {
		dst = append(dst, `,"collect_trace":true`...)
	}
	if c.NoiseCV != 0 {
		if dst, err = appendFloat(append(dst, `,"noise_cv":`...), c.NoiseCV); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendMarshaler appends an enum's own MarshalJSON bytes. The enums
// quote plain ASCII names that json.Marshal's compaction leaves as they
// are.
func appendMarshaler(dst []byte, m json.Marshaler) ([]byte, error) {
	b, err := m.MarshalJSON()
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// appendMarshal appends json.Marshal(v).
func appendMarshal(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// appendString appends s as json.Marshal quotes it: directly when every
// byte is plain, through json.Marshal otherwise.
func appendString(dst []byte, s string) ([]byte, error) {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return appendMarshal(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), nil
}

// plainByte reports whether json.Marshal writes b inside a string as
// itself and a JSON string may hold it unescaped: printable ASCII other
// than the quote, the backslash and the three characters json.Marshal
// escapes for HTML.
func plainByte(b byte) bool {
	return b >= 0x20 && b < 0x7f && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// appendFloat appends f as encoding/json formats a float64: 'f' format,
// or 'e' below 1e-6 and from 1e21 up with a one-digit negative exponent
// unpadded (e-07 becomes e-7). NaN and infinities fail, as in json.Marshal.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// DecodePlainJSON decodes the JSON object at the front of data, after
// optional whitespace, into c, which must be the zero Config, and returns
// the bytes after the object. It handles only a plain object: a flat one
// whose keys are Config's exact JSON names (no topology or perturbation),
// whose strings are unescaped printable ASCII, whose numbers parse as
// strconv parses them for encoding/json, and whose enums are strings
// handed to the enum's own UnmarshalJSON. When ok, c holds what a strict
// json.Decoder would have decoded; anything else — other keys or values,
// escapes, null, non-ASCII, any error — returns ok = false with c in an
// unspecified state, and the caller decodes the same bytes with
// json.Decoder, which also words every error. hdlsd reads plain sweep
// cells here, without the decoder's reflection.
func (c *Config) DecodePlainJSON(data []byte) (rest []byte, ok bool) {
	b := skipSpace(data)
	if len(b) == 0 || b[0] != '{' {
		return data, false
	}
	if b = skipSpace(b[1:]); len(b) > 0 && b[0] == '}' {
		return b[1:], true
	}
	for {
		var key, val []byte
		if key, b, ok = plainToken(b); !ok || key[0] != '"' {
			return data, false
		}
		if b = skipSpace(b); len(b) == 0 || b[0] != ':' {
			return data, false
		}
		if val, b, ok = plainToken(skipSpace(b[1:])); !ok || !c.setPlain(key[1:len(key)-1], val) {
			return data, false
		}
		if b = skipSpace(b); len(b) == 0 {
			return data, false
		}
		switch b[0] {
		case ',':
			b = skipSpace(b[1:])
		case '}':
			return b[1:], true
		default:
			return data, false
		}
	}
}

// setPlain stores one plain value under its JSON key, reporting false for
// an unknown key, a value of the wrong kind, or one the decoder would
// reject.
func (c *Config) setPlain(key, val []byte) bool {
	switch string(key) {
	case "app":
		return val[0] == '"' && c.App.UnmarshalJSON(val) == nil
	case "inter":
		return val[0] == '"' && c.Inter.UnmarshalJSON(val) == nil
	case "intra":
		return val[0] == '"' && c.Intra.UnmarshalJSON(val) == nil
	case "approach":
		return val[0] == '"' && c.Approach.UnmarshalJSON(val) == nil
	case "nodes":
		return plainInt(val, &c.Nodes)
	case "workers_per_node":
		return plainInt(val, &c.WorkersPerNode)
	case "scale":
		return plainInt(val, &c.Scale)
	case "seed":
		n, ok := plainInt64(val)
		c.Seed = n
		return ok
	case "workload":
		if val[0] != '"' {
			return false
		}
		c.Workload = string(val[1 : len(val)-1])
		return true
	case "extended_runtime":
		return plainBool(val, &c.ExtendedRuntime)
	case "collect_trace":
		return plainBool(val, &c.CollectTrace)
	case "noise_cv":
		if val[0] != '-' && (val[0] < '0' || val[0] > '9') {
			return false
		}
		f, err := strconv.ParseFloat(string(val), 64)
		c.NoiseCV = f
		return err == nil
	}
	return false
}

// plainInt64 parses an integer token as json.Decoder does for an int64
// field: strconv.ParseInt, with fractions and exponents left to the
// decoder, which rejects them.
func plainInt64(val []byte) (int64, bool) {
	for i, b := range val {
		if (b < '0' || b > '9') && (i > 0 || b != '-') {
			return 0, false
		}
	}
	n, err := strconv.ParseInt(string(val), 10, 64)
	return n, err == nil
}

// plainInt is plainInt64 for an int field, which must also hold the value.
func plainInt(val []byte, dst *int) bool {
	n, ok := plainInt64(val)
	*dst = int(n)
	return ok && int64(*dst) == n
}

// plainBool parses true or false.
func plainBool(val []byte, dst *bool) bool {
	switch string(val) {
	case "true":
		*dst = true
	case "false":
		*dst = false
	default:
		return false
	}
	return true
}

// plainToken splits the token at the front of b: a string of plain bytes
// with its quotes, a number in JSON's grammar, true or false. Anything
// else — an escape, null, an object or array, a malformed number — is
// not plain.
func plainToken(b []byte) (tok, rest []byte, ok bool) {
	if len(b) == 0 {
		return nil, b, false
	}
	switch c := b[0]; {
	case c == '"':
		for i := 1; i < len(b); i++ {
			if b[i] == '"' {
				return b[:i+1], b[i+1:], true
			}
			if !plainByte(b[i]) {
				return nil, b, false
			}
		}
		return nil, b, false
	case c == '-' || c >= '0' && c <= '9':
		n := numberLen(b)
		return b[:n], b[n:], n > 0
	case c == 't' && len(b) >= 4 && string(b[:4]) == "true":
		return b[:4], b[4:], true
	case c == 'f' && len(b) >= 5 && string(b[:5]) == "false":
		return b[:5], b[5:], true
	}
	return nil, b, false
}

// numberLen returns the length of the JSON number at the front of b —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — or 0 if there is none.
func numberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0
		}
		i = j
	}
	return i
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// skipSpace drops JSON whitespace from the front of b.
func skipSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\n' || b[0] == '\r') {
		b = b[1:]
	}
	return b
}
