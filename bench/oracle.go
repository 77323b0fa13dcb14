package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"repro/hdls"
	"repro/internal/serve"
)

// cell is one generated simulation cell and the hash the daemon must report
// for it, computed once when the cell is generated.
type cell struct {
	cfg  hdls.Config
	hash string
}

func newCell(cfg hdls.Config) cell { return cell{cfg: cfg, hash: cfg.Hash()} }

// sampled picks the cells whose served bytes are recomputed in-process
// after timing: 1 in 64, chosen by hash so the choice repeats per seed.
func sampled(hash string) bool { return hdls.HashKeyOf(hash)%64 == 0 }

// oracle checks every cell line a workload receives. Each check covers one
// property:
//
//   - lines arrive in index order;
//   - each line's hash is Config.Hash of the submitted cell;
//   - sampled lines equal serve.CellLine(idx, hash, json(hdls.RunSummary))
//     computed in-process (verify, after timing ends);
//   - with repeats on, every later sighting of a hash carries the bytes of
//     its first sighting.
//
// Any mismatch counts as a failed cell and names workload, sweep and cell.
type oracle struct {
	workload string

	mu       sync.Mutex
	failures []string
	samples  []sample
	// repeats maps hash → summary bytes of its first sighting; nil unless
	// the workload replays cells.
	repeats map[string][]byte
}

// sample is one served line kept for the in-process comparison.
type sample struct {
	sweep, idx int
	c          cell
	line       []byte
}

func newOracle(workload string) *oracle { return &oracle{workload: workload} }

// fail records a mismatch.
func (o *oracle) fail(sweep, idx int, format string, args ...any) {
	msg := fmt.Sprintf("oracle: %s sweep %d cell %d: ", o.workload, sweep, idx) + fmt.Sprintf(format, args...)
	o.mu.Lock()
	o.failures = append(o.failures, msg)
	o.mu.Unlock()
}

// summaryOf checks the frozen layout of line for cell idx and returns its
// summary bytes, or nil after recording why the line is wrong.
func (o *oracle) summaryOf(sweep, idx int, c cell, line []byte) []byte {
	rest, ok := bytes.CutPrefix(line, []byte(`{"index":`+strconv.Itoa(idx)+`,`))
	if !ok {
		o.fail(sweep, idx, "line out of index order: %.60s", line)
		return nil
	}
	rest, ok = bytes.CutPrefix(rest, []byte(`"hash":"`+c.hash+`",`))
	if !ok {
		o.fail(sweep, idx, "hash is not Config.Hash of the submitted cell: %.100s", line)
		return nil
	}
	sum, ok := bytes.CutPrefix(rest, []byte(`"summary":`))
	if !ok || !bytes.HasSuffix(sum, []byte("}")) {
		o.fail(sweep, idx, "no summary: %.200s", line)
		return nil
	}
	return sum[:len(sum)-1]
}

// check verifies one served line; keep forces the in-process comparison for
// it (the first grid-cold sweep). It reports whether the line passed the
// checks that run now.
func (o *oracle) check(sweep, idx int, c cell, line []byte, keep bool) bool {
	sum := o.summaryOf(sweep, idx, c, line)
	if sum == nil {
		return false
	}
	if keep || sampled(c.hash) {
		o.mu.Lock()
		o.samples = append(o.samples, sample{sweep: sweep, idx: idx, c: c, line: bytes.Clone(line)})
		o.mu.Unlock()
	}
	if o.repeats == nil {
		return true
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	first, seen := o.repeats[c.hash]
	if !seen {
		o.repeats[c.hash] = bytes.Clone(sum)
		return true
	}
	if !bytes.Equal(first, sum) {
		o.failures = append(o.failures, fmt.Sprintf(
			"oracle: %s sweep %d cell %d: repeat of %s differs from its first sighting",
			o.workload, sweep, idx, c.hash))
		return false
	}
	return true
}

// verify recomputes every kept sample in-process on workers goroutines and
// compares the served line byte for byte. It returns the mismatch count.
func (o *oracle) verify(workers int) int {
	o.mu.Lock()
	samples := o.samples
	o.mu.Unlock()
	var (
		wg   sync.WaitGroup
		next = make(chan sample)
		bad  = make([]int, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := range next {
				want, err := expectedLine(s.idx, s.c)
				switch {
				case err != nil:
					o.fail(s.sweep, s.idx, "in-process run failed: %v", err)
					bad[w]++
				case !bytes.Equal(want, s.line):
					o.fail(s.sweep, s.idx, "served line differs from in-process RunSummary:\n  served %s\n  want   %s", s.line, want)
					bad[w]++
				}
			}
		}(w)
	}
	for _, s := range samples {
		next <- s
	}
	close(next)
	wg.Wait()
	total := 0
	for _, n := range bad {
		total += n
	}
	return total
}

// expectedLine is the line a correct daemon serves for cell idx.
func expectedLine(idx int, c cell) ([]byte, error) {
	sum, err := hdls.RunSummary(c.cfg)
	if err != nil {
		return nil, err
	}
	js, err := json.Marshal(sum)
	if err != nil {
		return nil, err
	}
	return serve.CellLine(idx, c.hash, js), nil
}

// firstFailure is the first recorded mismatch, or "".
func (o *oracle) firstFailure() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.failures) == 0 {
		return ""
	}
	return o.failures[0]
}
