package dls

import (
	"fmt"

	"repro/internal/jsonenum"
)

// MarshalJSON encodes the technique as its conventional name (e.g.
// "FAC2", "AWF-B"), the form the hdlsd service API and sweep snapshots
// use. The name is quoted directly, without a nested json.Marshal.
// Unknown values error rather than emitting a bare integer.
func (t Technique) MarshalJSON() ([]byte, error) {
	s, ok := techniqueNames[t]
	if !ok {
		return nil, fmt.Errorf("dls: cannot marshal unknown technique %d", int(t))
	}
	return jsonenum.Marshal(s), nil
}

// UnmarshalJSON decodes a technique from its name via Parse
// (case-insensitive, dashes optional: "fac2", "AWF-B", "awfb"). A plain
// quoted name goes straight to Parse; escaped strings, null and
// non-strings are decoded by json.Unmarshal first, so every input keeps
// the same result and error text.
func (t *Technique) UnmarshalJSON(data []byte) error {
	v, err := jsonenum.Unmarshal(data, "dls: technique", matchTechnique, Parse)
	if err != nil {
		return err
	}
	*t = v
	return nil
}

// matchTechnique is Parse for a plain ASCII name, read in place.
func matchTechnique(name []byte) (Technique, bool) {
	var buf [16]byte
	key, ok := jsonenum.Fold(buf[:], name, "-", true)
	t, found := techniqueByKey[string(key)]
	return t, ok && found
}
