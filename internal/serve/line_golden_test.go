package serve

import (
	"flag"
	"fmt"
	"strings"
	"testing"
)

var printLineGolden = flag.Bool("print-line-golden", false,
	"print the current cell-line golden table instead of asserting")

// lineGoldenHashes are the hash fields of the line golden: 64 hex digits
// like a config hash, the empty string, and a short one.
var lineGoldenHashes = []string{
	"4c2f3a4b2c4a1b6e45b2d5f5b0b1a4a3c7e2f4d6a8b0c2e4f6a8b0c2e4f6a8b0",
	"",
	"abc",
}

// lineGoldenIndexes are the index fields of the line golden.
var lineGoldenIndexes = []int{0, 1, 15, 4095, 1 << 40, -1}

// lineGoldenMessages are the error-line messages: the frozen in-band
// messages plus every class of byte that string quoting treats specially.
var lineGoldenMessages = []string{
	deadlineExceededMsg,
	"canceled: context canceled",
	"",
	`quote " and backslash \ inside`,
	"non-ASCII: 5 µs, Ω, 日本語",
	"control \x01 byte, tab \t, newline \n, DEL \x7f",
	"line separator \u2028 and paragraph separator \u2029",
	"invalid UTF-8 \xff\xfe",
	"<html> & 'single'",
}

// lineGoldenLines renders every golden line, in golden order: cell lines
// over index × hash × summary, then error lines over index × hash × message.
func lineGoldenLines() []string {
	summaries := []string{`{"t_par":0.5,"chunks":3}`, `{}`}
	var out []string
	for _, idx := range lineGoldenIndexes {
		for _, hash := range lineGoldenHashes {
			for _, sum := range summaries {
				out = append(out, string(CellLine(idx, hash, []byte(sum))))
			}
		}
	}
	for i, msg := range lineGoldenMessages {
		idx := lineGoldenIndexes[i%len(lineGoldenIndexes)]
		for _, hash := range lineGoldenHashes {
			out = append(out, string(ErrorCellLine(idx, hash, msg)))
		}
	}
	return out
}

// TestCellLineGolden pins the exact bytes of the NDJSON cell and error
// lines. Every stream, every replay and the fleet merge reproduce these
// bytes, so their layout and quoting are part of the service contract.
func TestCellLineGolden(t *testing.T) {
	got := lineGoldenLines()
	if *printLineGolden {
		fmt.Println("var lineGoldenWant = []string{")
		for _, ln := range got {
			fmt.Printf("\t%q,\n", ln)
		}
		fmt.Println("}")
		return
	}
	if len(got) != len(lineGoldenWant) {
		t.Fatalf("%d golden lines, want %d (run with -print-line-golden)", len(got), len(lineGoldenWant))
	}
	for i := range got {
		if got[i] != lineGoldenWant[i] {
			t.Errorf("line %d:\n got %q\nwant %q", i, got[i], lineGoldenWant[i])
		}
	}
	// The summary bytes are embedded verbatim, never re-encoded.
	if ln := string(CellLine(3, "h", []byte(` {"a" : 1} `))); !strings.HasSuffix(ln, `"summary": {"a" : 1} }`) {
		t.Errorf("summary bytes not embedded verbatim: %q", ln)
	}
}
