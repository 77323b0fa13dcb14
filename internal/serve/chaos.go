package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The chaos layer is deterministic fault injection for the worker daemon:
// every failure path the fleet coordinator must survive — slow workers,
// 5xx responses, dropped connections, streams truncated mid-body — can be
// provoked on purpose, by count, so tests exercise recovery instead of
// hoping for it. It is armed explicitly (Options.Chaos / hdlsd -chaos) and
// never touches a production daemon.
//
// A chaos spec is "mode:key=value,..." with modes
//
//	delay     sleep d (e.g. delay:d=200ms) before handling the request
//	error     reply with an HTTP error (code=500 by default)
//	drop      abort the connection before writing anything
//	truncate  stream the first lines=N NDJSON lines, then abort mid-body;
//	          bytes=M additionally leaks M bytes of the next line first
//	          (M=-1: the whole next line except its newline — the
//	          unterminated-final-line artifact merge layers must reject)
//
// and common keys times=N (inject on the first N eligible requests only;
// default unlimited) and after=M (let the first M eligible requests pass
// untouched). Counts make injection deterministic: "truncate:lines=2,
// after=0,times=1" breaks exactly the first sweep stream and nothing else.
// Only /v1/run and /v1/sweep requests are eligible — probes and metrics
// always tell the truth.
//
// The per-request X-Chaos header (same syntax) overrides the static spec,
// with its own independent counters, so a curl session can break a single
// request of a live-but-armed worker.

// chaosSpec is one parsed injection rule with its request counter.
type chaosSpec struct {
	mode  string
	delay time.Duration
	code  int   // error mode: status code
	lines int   // truncate mode: NDJSON lines to let through
	cut   int   // truncate mode: bytes of the next line to leak (-1: all but its newline)
	after int64 // eligible requests to let pass first
	times int64 // injections to perform (<0 = unlimited)

	seen atomic.Int64 // eligible requests observed
}

// chaosHeaderOnly is the Options.Chaos value that arms the layer without a
// static rule: only X-Chaos headers inject.
const chaosHeaderOnly = "header"

// parseChaosSpec parses "mode:key=value,..." into a rule.
func parseChaosSpec(s string) (*chaosSpec, error) {
	mode, args, _ := strings.Cut(s, ":")
	spec := &chaosSpec{mode: strings.TrimSpace(mode), code: http.StatusInternalServerError, lines: 0, times: -1}
	switch spec.mode {
	case "delay", "error", "drop", "truncate":
	default:
		return nil, fmt.Errorf("serve: unknown chaos mode %q (delay, error, drop, truncate)", spec.mode)
	}
	if args == "" {
		return spec, nil
	}
	for _, kv := range strings.Split(args, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("serve: chaos argument %q is not key=value", kv)
		}
		var err error
		switch strings.TrimSpace(k) {
		case "d":
			spec.delay, err = time.ParseDuration(v)
		case "code":
			spec.code, err = strconv.Atoi(v)
		case "lines":
			spec.lines, err = strconv.Atoi(v)
		case "bytes":
			spec.cut, err = strconv.Atoi(v)
			if err == nil && spec.cut < -1 {
				return nil, fmt.Errorf("serve: chaos bytes %d out of -1..", spec.cut)
			}
		case "after":
			spec.after, err = strconv.ParseInt(v, 10, 64)
		case "times":
			spec.times, err = strconv.ParseInt(v, 10, 64)
		default:
			return nil, fmt.Errorf("serve: unknown chaos key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("serve: chaos key %s: %w", k, err)
		}
	}
	if spec.mode == "error" && (spec.code < 400 || spec.code > 599) {
		return nil, fmt.Errorf("serve: chaos error code %d out of 400..599", spec.code)
	}
	return spec, nil
}

// fires reports whether this eligible request is within the rule's
// [after, after+times) injection window.
func (c *chaosSpec) fires() bool {
	n := c.seen.Add(1) - 1 // this request's zero-based eligible index
	if n < c.after {
		return false
	}
	return c.times < 0 || n < c.after+c.times
}

// chaosHandler wraps next with a static rule (nil when header-only armed)
// and honors per-request X-Chaos overrides.
type chaosHandler struct {
	static *chaosSpec
	next   http.Handler
}

// Chaos wraps next in the fault-injection layer armed with spec ("header"
// for header-only arming). It errors on malformed specs so a daemon with a
// typoed -chaos flag fails at startup, not mid-experiment.
func Chaos(spec string, next http.Handler) (http.Handler, error) {
	h := &chaosHandler{next: next}
	if spec != chaosHeaderOnly {
		rule, err := parseChaosSpec(spec)
		if err != nil {
			return nil, err
		}
		h.static = rule
	}
	return h, nil
}

// chaosEligible limits injection to the cell-serving endpoints.
func chaosEligible(r *http.Request) bool {
	return strings.HasPrefix(r.URL.Path, "/v1/run") || strings.HasPrefix(r.URL.Path, "/v1/sweep")
}

func (h *chaosHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !chaosEligible(r) {
		h.next.ServeHTTP(w, r)
		return
	}
	rule := h.static
	if hdr := r.Header.Get("X-Chaos"); hdr != "" {
		// Header rules are one-shot by construction: each request carries
		// its own spec, so the counter starts fresh (after/times still
		// apply, letting a client express "pass" with after=1).
		override, err := parseChaosSpec(hdr)
		if err != nil {
			HTTPError(w, http.StatusBadRequest, "invalid X-Chaos header: %v", err)
			return
		}
		rule = override
	}
	if rule == nil || !rule.fires() {
		h.next.ServeHTTP(w, r)
		return
	}
	switch rule.mode {
	case "delay":
		time.Sleep(rule.delay)
		h.next.ServeHTTP(w, r)
	case "error":
		HTTPError(w, rule.code, "chaos: injected %d", rule.code)
	case "drop":
		// ErrAbortHandler makes net/http sever the connection without a
		// response: the client sees a transport error, exactly like a
		// SIGKILLed worker.
		panic(http.ErrAbortHandler)
	case "truncate":
		tw := &truncatingWriter{ResponseWriter: w, remaining: rule.lines, cut: rule.cut}
		h.next.ServeHTTP(tw, r)
		if tw.tripped {
			panic(http.ErrAbortHandler)
		}
	}
}

// truncatingWriter lets rule.lines NDJSON lines through — plus, when cut
// is set, a leading fragment of the following line (cut = -1 leaks that
// whole line but withholds its newline) — then swallows all further output
// and marks itself tripped so the handler aborts the connection. The
// client observes a well-formed prefix (possibly ending in an unterminated
// line) followed by an unexpected EOF, the signature of a worker dying
// mid-stream.
type truncatingWriter struct {
	http.ResponseWriter
	remaining int
	cut       int
	tripped   bool
}

func (t *truncatingWriter) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 && !t.tripped {
		if t.remaining > 0 {
			nl := bytes.IndexByte(p, '\n')
			if nl < 0 {
				_, err := t.ResponseWriter.Write(p)
				return total, err
			}
			if _, err := t.ResponseWriter.Write(p[:nl+1]); err != nil {
				return total, err
			}
			p = p[nl+1:]
			t.remaining--
			continue
		}
		// Line budget spent: leak the configured fragment of what follows,
		// then flush and trip so the abort leaves the fragment visible.
		frag := p
		done := false
		if t.cut < 0 {
			if nl := bytes.IndexByte(p, '\n'); nl >= 0 {
				frag = p[:nl]
				done = true
			}
		} else if len(frag) >= t.cut {
			frag = frag[:t.cut]
			t.cut = 0
			done = true
		} else {
			t.cut -= len(frag)
		}
		if len(frag) > 0 {
			if _, err := t.ResponseWriter.Write(frag); err != nil {
				return total, err
			}
		}
		p = p[len(frag):]
		if done {
			t.tripped = true
			if f, ok := t.ResponseWriter.(http.Flusher); ok {
				f.Flush()
			}
		}
	}
	return total, nil
}

// Flush forwards flushes while the writer is still passing data through.
func (t *truncatingWriter) Flush() {
	if t.tripped {
		return
	}
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
