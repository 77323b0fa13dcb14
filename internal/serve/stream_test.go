package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/dls"
	"repro/hdls"
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

// waitUntil polls cond every millisecond for up to ten seconds and
// reports whether it came true.
func waitUntil(cond func() bool) bool {
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// firstLine is a streamed response and its first line, as read by
// readFirstLine.
type firstLine struct {
	resp *http.Response
	br   *bufio.Reader
	line []byte
	err  error
}

// readFirstLine POSTs body as JSON to url in the background and delivers
// the response with its first line read.
func readFirstLine(url string, body any) <-chan firstLine {
	out := make(chan firstLine, 1)
	go func() {
		buf, err := json.Marshal(body)
		if err != nil {
			out <- firstLine{err: err}
			return
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
		if err != nil {
			out <- firstLine{err: err}
			return
		}
		br := bufio.NewReader(resp.Body)
		line, err := br.ReadBytes('\n')
		out <- firstLine{resp: resp, br: br, line: line, err: err}
	}()
	return out
}

// TestStreamFlushesBeforeBlocking holds cell 1 of a 2-cell sweep in the
// store's peer probe and requires line 0 to reach the client while cell 1
// is still held: the stream flushes what it wrote before it waits.
func TestStreamFlushesBeforeBlocking(t *testing.T) {
	cells := []hdls.Config{cheapCell(701, dls.STATIC), cheapCell(702, dls.GSS)}
	held := cells[1].Hash()
	gate := make(chan struct{})
	var release sync.Once
	_, ts := newTestServer(t, Options{Workers: 2, PeerFetch: func(ctx context.Context, hash string) ([]byte, bool) {
		if hash == held {
			select {
			case <-gate:
			case <-ctx.Done():
			}
		}
		return nil, false
	}})
	t.Cleanup(func() { release.Do(func() { close(gate) }) })

	// The request runs in the background: with nothing flushed, even the
	// response headers would never arrive.
	first := readFirstLine(ts.URL+"/v1/sweep?stream=1", map[string]any{"cells": cells})
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
	if got := parseNDJSON(t, fl.line); len(got) != 1 || got[0].Index != 0 || len(got[0].Summary) == 0 {
		t.Fatalf("first streamed line is not cell 0's result: %s", fl.line)
	}
	release.Do(func() { close(gate) })
	rest, err := io.ReadAll(fl.br)
	if err != nil {
		t.Fatal(err)
	}
	if got := parseNDJSON(t, rest); len(got) != 1 || got[0].Index != 1 || len(got[0].Summary) == 0 {
		t.Fatalf("second streamed line is not cell 1's result: %s", rest)
	}
}

// TestStreamAllHitSweepInOneFlush replays a sweep whose cells are all
// store hits. The first body write waits until every cell has completed,
// so the stream never has to block: no line is flushed on its own, and
// the whole body leaves in the handler's final flush.
func TestStreamAllHitSweepInOneFlush(t *testing.T) {
	s := New(Options{Workers: 2})
	recs := make(chan *flushRecorder, 2)
	var gated atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &flushRecorder{ResponseWriter: w}
		if gated.Load() {
			rec.beforeFirstWrite = func() {
				if !waitUntil(func() bool { return s.manager.Stats().ActiveJobs == 0 }) {
					t.Error("the replayed sweep's cells did not complete")
				}
			}
		}
		s.Handler().ServeHTTP(rec, r)
		recs <- rec
	}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	req := sweepBody(16)
	cold := readBody(t, postJSON(t, ts.URL+"/v1/sweep?stream=1", req))
	<-recs
	gated.Store(true)
	before := s.manager.Stats().CellsCached
	resp := postJSON(t, ts.URL+"/v1/sweep?stream=1", req)
	warm := readBody(t, resp)
	rec := <-recs
	if !bytes.Equal(cold, warm) {
		t.Fatalf("replayed sweep not byte-identical:\n%s\n%s", cold, warm)
	}
	if hits := s.manager.Stats().CellsCached - before; hits != 16 {
		t.Fatalf("replay served %d of 16 cells from the store", hits)
	}
	if rec.wrote != len(warm) || len(rec.flushes) != 0 {
		t.Errorf("all-hit sweep: %d of %d bytes written, flushes after %v bytes; want every byte and no flush before the handler returns",
			rec.wrote, len(warm), rec.flushes)
	}
}
