package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/hdls"
	"repro/internal/serve"
)

// flushRecorder wraps a ResponseWriter and records, for each Flush, how
// many body bytes had been written. beforeFirstWrite, when set, runs once
// before the first body byte passes through.
type flushRecorder struct {
	http.ResponseWriter
	beforeFirstWrite func()
	wrote            int
	flushes          []int
}

func (f *flushRecorder) Write(b []byte) (int, error) {
	if f.wrote == 0 && f.beforeFirstWrite != nil {
		f.beforeFirstWrite()
	}
	f.wrote += len(b)
	return f.ResponseWriter.Write(b)
}

func (f *flushRecorder) Flush() {
	f.flushes = append(f.flushes, f.wrote)
	f.ResponseWriter.(http.Flusher).Flush()
}

// fakeLine is the stub workers' cell line i for cfg.
func fakeLine(i int, cfg hdls.Config) []byte {
	summary, _ := json.Marshal(map[string]any{"fake": i})
	return append(serve.CellLine(i, cfg.Hash(), summary), '\n')
}

// TestFleetStreamFlushesBeforeBlocking holds cell 1 of a 2-cell sweep at
// a stub worker and requires the coordinator to pass line 0 to the client
// while cell 1 is still held.
func TestFleetStreamFlushesBeforeBlocking(t *testing.T) {
	cells := []hdls.Config{fleetCell(1), fleetCell(2)}
	gate := make(chan struct{})
	var release sync.Once
	fake := shardServer(t, func(w http.ResponseWriter, shard []hdls.Config, r *http.Request) {
		for i, c := range shard {
			if i == 1 {
				select {
				case <-gate:
				case <-r.Context().Done():
					return
				}
			}
			w.Write(fakeLine(i, c))
			w.(http.Flusher).Flush()
		}
	})
	t.Cleanup(fake.Close)
	_, ts, _ := newCoordinator(t, []string{fake.URL}, nil)
	// Registered last so it runs first: the servers' Close waits for the
	// held request.
	t.Cleanup(func() { release.Do(func() { close(gate) }) })

	// The request runs in the background: with nothing flushed, even the
	// response headers would never arrive.
	body, err := json.Marshal(map[string]any{"cells": cells})
	if err != nil {
		t.Fatal(err)
	}
	type firstLine struct {
		resp *http.Response
		br   *bufio.Reader
		line []byte
		err  error
	}
	first := make(chan firstLine, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			first <- firstLine{err: err}
			return
		}
		br := bufio.NewReader(resp.Body)
		line, err := br.ReadBytes('\n')
		first <- firstLine{resp: resp, br: br, line: line, err: err}
	}()
	var fl firstLine
	select {
	case fl = <-first:
	case <-time.After(10 * time.Second):
		t.Fatal("line 0 did not reach the client while cell 1 was held")
	}
	if fl.err != nil {
		t.Fatal(fl.err)
	}
	defer fl.resp.Body.Close()
	if want := fakeLine(0, cells[0]); !bytes.Equal(fl.line, want) {
		t.Fatalf("first merged line %q, want %q", fl.line, want)
	}
	release.Do(func() { close(gate) })
	rest, err := io.ReadAll(fl.br)
	if err != nil {
		t.Fatal(err)
	}
	if want := fakeLine(1, cells[1]); !bytes.Equal(rest, want) {
		t.Fatalf("rest of the merged stream %q, want %q", rest, want)
	}
}

// TestFleetStreamAllReadyInOneFlush merges a sweep whose lines have all
// arrived before the coordinator writes its first byte: the merge loop
// never blocks, so no line is flushed on its own and the whole body
// leaves in the handler's final flush.
func TestFleetStreamAllReadyInOneFlush(t *testing.T) {
	const n = 16
	cells := make([]hdls.Config, n)
	var want []byte
	for i := range cells {
		cells[i] = fleetCell(int64(i + 1))
		want = append(want, fakeLine(i, cells[i])...)
	}
	fake := shardServer(t, func(w http.ResponseWriter, shard []hdls.Config, r *http.Request) {
		serveShard(w, shard)
	})
	t.Cleanup(fake.Close)
	c, _, _ := newCoordinator(t, []string{fake.URL}, nil)
	recs := make(chan *flushRecorder, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &flushRecorder{ResponseWriter: w, beforeFirstWrite: func() {
			for deadline := time.Now().Add(10 * time.Second); c.cells.Load() < n; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Error("the stub worker's lines were not all merged")
					return
				}
			}
		}}
		c.Handler().ServeHTTP(rec, r)
		recs <- rec
	}))
	t.Cleanup(ts.Close)

	resp, got := postSweep(t, ts.URL, cells)
	rec := <-recs
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("merged stream (HTTP %d):\n%s\nwant:\n%s", resp.StatusCode, got, want)
	}
	if rec.wrote != len(want) || len(rec.flushes) != 0 {
		t.Errorf("all-ready sweep: %d of %d bytes written, flushes after %v bytes; want every byte and no flush before the handler returns",
			rec.wrote, len(want), rec.flushes)
	}
}
