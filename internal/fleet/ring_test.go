package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strconv"
	"testing"

	"repro/hdls"
)

// ringKeys returns n routing keys spread over the space the way config
// hashes are: the routing key of a SHA-256 digest of an index.
func ringKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		keys[i] = hdls.HashKeyOf(hex.EncodeToString(sum[:]))
	}
	return keys
}

func TestRingDeterministicAndComplete(t *testing.T) {
	workers := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1 := NewRing(workers, 64)
	r2 := NewRing(workers, 64)
	counts := make([]int, len(workers))
	for _, key := range ringKeys(2000) {
		s1, s2 := r1.Successors(key), r2.Successors(key)
		if len(s1) != len(workers) {
			t.Fatalf("Successors returned %d workers, want %d", len(s1), len(workers))
		}
		seen := map[int]bool{}
		for i, wi := range s1 {
			if wi != s2[i] {
				t.Fatalf("ring not deterministic for key %d", key)
			}
			if seen[wi] {
				t.Fatalf("worker %d repeated in successor list", wi)
			}
			seen[wi] = true
		}
		counts[s1[0]]++
	}
	// 64 virtual points per worker keep the split rough but never
	// degenerate: every worker owns a real share of 2000 keys.
	for wi, n := range counts {
		if n < 200 {
			t.Errorf("worker %d owns only %d/2000 keys: placement degenerate (%v)", wi, n, counts)
		}
	}
}

// TestRingStabilityUnderWorkerLoss is the property the fleet's failure
// model rests on: removing one worker re-homes only that worker's keys —
// each to its ring successor — and leaves every other assignment alone, so
// a worker loss never invalidates the surviving workers' caches.
func TestRingStabilityUnderWorkerLoss(t *testing.T) {
	workers := []string{"http://a:1", "http://b:1", "http://c:1"}
	lost := 1 // drop b
	survivors := []string{workers[0], workers[2]}
	full := NewRing(workers, 64)
	reduced := NewRing(survivors, 64)
	// Map reduced-ring worker indices back to full-ring indices.
	toFull := []int{0, 2}

	moved := 0
	for _, key := range ringKeys(2000) {
		succ := full.Successors(key)
		newOwner := toFull[reduced.Owner(key)]
		if succ[0] != lost {
			if newOwner != succ[0] {
				t.Fatalf("key %d moved from surviving worker %d to %d", key, succ[0], newOwner)
			}
			continue
		}
		moved++
		// A lost worker's keys fall exactly to its next surviving successor.
		want := succ[1]
		if want == lost {
			want = succ[2]
		}
		if newOwner != want {
			t.Fatalf("key %d re-homed to %d, want ring successor %d", key, newOwner, want)
		}
	}
	if moved == 0 {
		t.Fatal("no keys were owned by the removed worker; test exercised nothing")
	}
}

func TestRingSingleWorker(t *testing.T) {
	r := NewRing([]string{"http://only:1"}, 8)
	for _, key := range ringKeys(50) {
		if got := r.Owner(key); got != 0 {
			t.Fatalf("single-worker ring routed key to %d", got)
		}
	}
}

// TestRingSpreadsSimilarNames checks placement for worker names that differ
// in only a few bytes — consecutive ports on one host, numbered hosts on
// one port — which is how fleets are named. With the default 64 points per
// worker, each worker must own its fair share of keys to within 25%.
func TestRingSpreadsSimilarNames(t *testing.T) {
	keys := ringKeys(16384)
	for _, workers := range [][]string{
		{"http://127.0.0.1:28471", "http://127.0.0.1:28472"},
		{"http://127.0.0.1:28471", "http://127.0.0.1:28472", "http://127.0.0.1:28473", "http://127.0.0.1:28474"},
		{"http://node-a:8080", "http://node-b:8080", "http://node-c:8080"},
	} {
		r := NewRing(workers, 64)
		counts := make([]int, len(workers))
		for _, key := range keys {
			counts[r.Owner(key)]++
		}
		fair := float64(len(keys)) / float64(len(workers))
		for wi, n := range counts {
			if math.Abs(float64(n)-fair) > 0.25*fair {
				t.Errorf("%s owns %.1f%% of keys, want %.1f%% ± 25%% (counts %v)",
					workers[wi], 100*float64(n)/float64(len(keys)), 100/float64(len(workers)), counts)
			}
		}
	}
}
