package core

import (
	"fmt"
	"strings"

	"repro/internal/jsonenum"
)

// approachSeparators strips the separators ParseApproach ignores. Built
// once: a Replacer is safe for concurrent use, and every decoded
// "approach" field goes through it.
var approachSeparators = strings.NewReplacer("_", "", "-", "", "+", "", " ", "")

// ParseApproach maps an approach name to its value. It accepts the
// display forms ("MPI+MPI", "MPI+OpenMP", "MPI+OpenMP(nowait)") and the
// usual CLI spellings ("mpimpi", "mpi-openmp", "nowait"), case-insensitively.
func ParseApproach(s string) (Approach, error) {
	n := approachSeparators.Replace(strings.ToLower(strings.TrimSpace(s)))
	switch n {
	case "mpimpi":
		return MPIMPI, nil
	case "mpiopenmp", "mpiomp", "openmp":
		return MPIOpenMP, nil
	case "mpiopenmp(nowait)", "mpiopenmpnowait", "nowait":
		return MPIOpenMPNoWait, nil
	}
	return 0, fmt.Errorf("core: unknown approach %q", s)
}

// MarshalJSON encodes the approach as its display name ("MPI+MPI",
// "MPI+OpenMP", "MPI+OpenMP(nowait)"), quoted directly without a nested
// json.Marshal.
func (a Approach) MarshalJSON() ([]byte, error) {
	switch a {
	case MPIMPI, MPIOpenMP, MPIOpenMPNoWait:
		return jsonenum.Marshal(a.String()), nil
	}
	return nil, fmt.Errorf("core: cannot marshal unknown approach %d", int(a))
}

// UnmarshalJSON decodes an approach from any spelling ParseApproach
// accepts. A plain quoted name goes straight to ParseApproach; escaped
// strings, null and non-strings are decoded by json.Unmarshal first, so
// every input keeps the same result and error text.
func (a *Approach) UnmarshalJSON(data []byte) error {
	v, err := jsonenum.Unmarshal(data, "core: approach", ParseApproach)
	if err != nil {
		return err
	}
	*a = v
	return nil
}
