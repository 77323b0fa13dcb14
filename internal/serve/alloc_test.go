package serve

import "testing"

// TestCellLineAllocs pins the line framing to one allocation per line:
// the buffer it builds, sized up front, with no fmt machinery.
func TestCellLineAllocs(t *testing.T) {
	hash := lineGoldenHashes[0]
	summary := []byte(`{"t_par":0.5,"chunks":3}`)
	var line []byte
	for _, g := range []struct {
		name string
		fn   func()
	}{
		{"CellLine", func() { line = CellLine(4095, hash, summary) }},
		{"ErrorCellLine", func() { line = ErrorCellLine(4095, hash, deadlineExceededMsg) }},
	} {
		if got := testing.AllocsPerRun(100, g.fn); got != 1 {
			t.Errorf("%s: %v allocations per line, want 1", g.name, got)
		}
	}
	_ = line
}
