package fleet

import (
	"testing"
	"time"

	"repro/internal/serve"
)

// fakeClock drives a Breaker through time deterministically.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

// TestBreakerStateMachine walks the full closed → open → half-open cycle
// both ways: a failed trial re-arms the cooldown, a successful one
// recloses.
func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(3, time.Minute)
	b.now = clk.now

	// Closed: admits traffic, counts consecutive failures.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker refused traffic")
		}
		b.Fail()
		if got := b.State(); got != BreakerClosed {
			t.Fatalf("after %d failures: state %v, want closed", i+1, got)
		}
	}
	// A success resets the count: two more failures must not trip it.
	b.Success()
	b.Fail()
	b.Fail()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("failure count survived a success: %v", got)
	}

	// Third consecutive failure trips it open.
	b.Fail()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after threshold failures: %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted traffic inside the cooldown")
	}
	if b.Available() {
		t.Fatal("open breaker reported available inside the cooldown")
	}
	if b.Opens() != 1 {
		t.Fatalf("opens = %d, want 1", b.Opens())
	}

	// Cooldown elapses: exactly one half-open trial is admitted.
	clk.advance(time.Minute)
	if !b.Available() {
		t.Fatal("cooled-down breaker reported unavailable")
	}
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the half-open trial")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state during trial: %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second caller admitted while a trial is in flight")
	}

	// Failed trial: straight back to open, cooldown re-armed from now.
	b.Fail()
	if b.State() != BreakerOpen || b.Opens() != 2 {
		t.Fatalf("failed trial: state %v opens %d, want open/2", b.State(), b.Opens())
	}
	clk.advance(30 * time.Second)
	if b.Allow() {
		t.Fatal("cooldown was not re-armed by the failed trial")
	}
	clk.advance(31 * time.Second)
	if !b.Allow() {
		t.Fatal("re-armed cooldown never elapsed")
	}

	// Successful trial recloses and clears everything.
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful trial: %v, want closed", b.State())
	}
	b.Fail()
	b.Fail()
	if b.State() != BreakerClosed {
		t.Fatal("failure count was not reset by the reclose")
	}
}

// TestBreakerLateFailuresWhileOpen: failures reported by older in-flight
// requests after the trip must not extend the cooldown.
func TestBreakerLateFailuresWhileOpen(t *testing.T) {
	clk := &fakeClock{t: time.Unix(2000, 0)}
	b := NewBreaker(1, time.Minute)
	b.now = clk.now
	b.Fail() // trips
	clk.advance(59 * time.Second)
	b.Fail() // a straggler from before the trip
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("straggler failure extended the cooldown")
	}
}

// TestRetryAfterFromBreakerDeadline drives the coordinator's Retry-After
// derivation with an injected clock: a fully-open fleet hints the earliest
// half-open deadline (rounded up, floored at 1), and the hint shrinks as
// that deadline approaches.
func TestRetryAfterFromBreakerDeadline(t *testing.T) {
	c, err := New(Options{
		Workers:         []string{"http://w1", "http://w2"},
		BreakerFailures: 1,
		BreakerCooldown: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base := time.Unix(1000, 0)
	now := base
	clock := func() time.Time { return now }
	c.now = clock
	for _, wk := range c.workers {
		wk.breaker.now = clock
	}

	if got := c.retryAfter(); got != serve.DefaultRetryAfter {
		t.Fatalf("healthy fleet: Retry-After = %q, want the %q default", got, serve.DefaultRetryAfter)
	}

	// Trip w1 now and w2 three seconds later: the hint must follow the
	// EARLIEST half-open deadline (w1's, 10s out), not w2's.
	c.workers[0].breaker.Fail()
	now = base.Add(3 * time.Second)
	c.workers[1].breaker.Fail()
	if got := c.retryAfter(); got != "7" {
		t.Fatalf("both open at t=3s: Retry-After = %q, want \"7\" (w1 reopens at t=10s)", got)
	}

	// Fractional remainders round up, and the hint never drops below 1.
	now = base.Add(9*time.Second + 100*time.Millisecond)
	if got := c.retryAfter(); got != "1" {
		t.Fatalf("900ms before the deadline: Retry-After = %q, want \"1\"", got)
	}
	now = base.Add(20 * time.Second)
	if got := c.retryAfter(); got != serve.DefaultRetryAfter {
		t.Fatalf("cooldown elapsed: Retry-After = %q, want the %q default (half-open admits a trial)", got, serve.DefaultRetryAfter)
	}
}
