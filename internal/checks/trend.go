package checks

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Row is one case measurement in a checks/trend/<class>.ndjson history.
// Rows are append-only and forward-compatible: LoadRows unmarshals a
// tolerant subset, so a future runner may add keys without breaking a
// reader pinned to this struct.
type Row struct {
	// Time is the measurement instant, RFC3339 UTC.
	Time string `json:"time"`
	// Check is the qualified check name, "<class>/<case>".
	Check string `json:"check"`
	// Status is the verdict: pass, fail or skip.
	Status string `json:"status"`
	// GoVersion identifies the toolchain that produced the row.
	GoVersion string `json:"go,omitempty"`
	// CalibMops is the host's calibration score at measurement time; rows
	// from differently-powered hosts stay comparable through it.
	CalibMops float64 `json:"calib_mops,omitempty"`
	// Measured maps metric names to observed values.
	Measured map[string]float64 `json:"measured,omitempty"`
	// Failures renders the violated goals, one message per goal.
	Failures []string `json:"failures,omitempty"`
	// Notes records skipped goals and host-fit reasons.
	Notes []string `json:"notes,omitempty"`
	// ElapsedSeconds is the case's wall time.
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
}

// RowsFromResults renders a run's results as trend rows stamped with the
// host that produced them.
func RowsFromResults(host Host, when time.Time, results []Result) []Row {
	rows := make([]Row, 0, len(results))
	for _, res := range results {
		row := Row{
			Time:           when.UTC().Format(time.RFC3339),
			Check:          res.Check,
			Status:         res.Status,
			GoVersion:      host.GoVersion,
			CalibMops:      host.CalibMops,
			Measured:       res.Measured,
			Notes:          res.Notes,
			ElapsedSeconds: res.Elapsed.Seconds(),
		}
		if res.Err != nil {
			row.Failures = append(row.Failures, res.Err.Error())
		}
		for _, f := range res.Failures {
			row.Failures = append(row.Failures, f.String())
		}
		rows = append(rows, row)
	}
	return rows
}

// AppendRows appends rows to an NDJSON history, creating the file and its
// directory as needed. O_APPEND keeps concurrent writers line-atomic for
// rows far below a pipe buffer, which these are.
func AppendRows(path string, rows []Row) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trend: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("trend: %w", err)
	}
	defer f.Close()
	for _, row := range rows {
		line, err := json.Marshal(row)
		if err != nil {
			return fmt.Errorf("trend: marshal row for %s: %w", row.Check, err)
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			return fmt.Errorf("trend: %w", err)
		}
	}
	return f.Close()
}

// LoadRows reads an NDJSON trend history. Unknown keys are ignored — the
// subset-unmarshal tolerance that lets old readers walk histories written
// by newer runners — but a syntactically broken line is an error naming
// its line number. A missing file is an empty history, not an error.
func LoadRows(path string) ([]Row, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("trend: %w", err)
	}
	defer f.Close()
	var rows []Row
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var row Row
		if err := json.Unmarshal(line, &row); err != nil {
			return nil, fmt.Errorf("trend: %s:%d: %w", path, n, err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trend: %s: %w", path, err)
	}
	return rows, nil
}
