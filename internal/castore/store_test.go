package castore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testHash derives a well-formed (64 hex chars) content hash for tests.
func testHash(seed string) string {
	sum := sha256.Sum256([]byte(seed))
	return hex.EncodeToString(sum[:])
}

func openTestStore(t *testing.T, opt Options) *Store {
	t.Helper()
	s, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestSingleflightCollapsesConcurrentMisses is the core dedup contract: 32
// goroutines requesting one hash run the compute exactly once, and every
// caller receives byte-identical content. Run under -race in CI.
func TestSingleflightCollapsesConcurrentMisses(t *testing.T) {
	s := openTestStore(t, Options{MemEntries: 16})
	hash := testHash("collapse")
	want := []byte(`{"index":0,"summary":{"t_par":1.25}}`)

	var computes atomic.Int64
	release := make(chan struct{})
	compute := func(ctx context.Context) ([]byte, error) {
		computes.Add(1)
		<-release // hold the flight open until all callers have piled on
		return want, nil
	}

	const callers = 32
	var wg sync.WaitGroup
	var started sync.WaitGroup
	results := make([][]byte, callers)
	outcomes := make([]Outcome, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		started.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			results[i], outcomes[i], errs[i] = s.Do(context.Background(), hash, compute)
		}(i)
	}
	started.Wait()
	time.Sleep(20 * time.Millisecond) // let the stragglers reach the flight
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", got)
	}
	var computed, collapsed int
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], want) {
			t.Fatalf("caller %d got %q, want %q", i, results[i], want)
		}
		switch outcomes[i] {
		case Computed:
			computed++
		case Collapsed:
			collapsed++
		}
	}
	if computed != 1 {
		t.Fatalf("%d callers report Computed, want exactly 1 (collapsed=%d)", computed, collapsed)
	}
	if st := s.Stats(); st.Collapsed != int64(collapsed) || st.Misses != 1 {
		t.Fatalf("stats = %+v; want Collapsed=%d Misses=1", st, collapsed)
	}
}

// TestSingleflightLeaderFailureRetries: a leader whose compute fails must
// not poison waiters — a live waiter retries and becomes the next leader,
// and the failed result is never cached.
func TestSingleflightLeaderFailureRetries(t *testing.T) {
	s := openTestStore(t, Options{MemEntries: 16})
	hash := testHash("leader-fail")
	boom := errors.New("canceled mid-cell")
	want := []byte("good bytes")

	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	var calls atomic.Int64
	failingFirst := func(ctx context.Context) ([]byte, error) {
		if calls.Add(1) == 1 {
			close(leaderIn)
			<-leaderGo
			return nil, boom
		}
		return want, nil
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var leaderErr error
	go func() {
		defer wg.Done()
		_, _, leaderErr = s.Do(context.Background(), hash, failingFirst)
	}()
	<-leaderIn // leader is inside compute; join as a waiter
	var waiterBody []byte
	var waiterOutcome Outcome
	var waiterErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		waiterBody, waiterOutcome, waiterErr = s.Do(context.Background(), hash, failingFirst)
	}()
	time.Sleep(10 * time.Millisecond)
	close(leaderGo)
	wg.Wait()

	if !errors.Is(leaderErr, boom) {
		t.Fatalf("leader error = %v, want %v", leaderErr, boom)
	}
	if waiterErr != nil || !bytes.Equal(waiterBody, want) {
		t.Fatalf("waiter got (%q, %v), want retried success %q", waiterBody, waiterErr, want)
	}
	if waiterOutcome != Computed {
		t.Fatalf("waiter outcome = %v, want Computed after retrying as leader", waiterOutcome)
	}
	// The failure must not have been cached: a fresh lookup hits the
	// retried (good) bytes.
	body, tier, ok := s.LookupLocal(hash)
	if !ok || tier != TierMem || !bytes.Equal(body, want) {
		t.Fatalf("LookupLocal after retry = (%q, %v, %t), want mem hit of %q", body, tier, ok, want)
	}
}

// TestSingleflightCanceledWaiter: a waiter whose own ctx dies while the
// leader runs gets its ctx error immediately, without waiting for the
// leader or perturbing it.
func TestSingleflightCanceledWaiter(t *testing.T) {
	s := openTestStore(t, Options{MemEntries: 16})
	hash := testHash("canceled-waiter")
	inCompute := make(chan struct{})
	release := make(chan struct{})
	compute := func(ctx context.Context) ([]byte, error) {
		close(inCompute)
		<-release
		return []byte("late"), nil
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Do(context.Background(), hash, compute)
	}()
	<-inCompute

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, outcome, err := s.Do(ctx, hash, compute)
	if !errors.Is(err, context.Canceled) || outcome != Collapsed {
		t.Fatalf("canceled waiter got (%v, %v), want (Collapsed, context.Canceled)", outcome, err)
	}
	close(release)
	<-done
}

// TestDiskRoundTrip covers the persistence loop: compute once, Close to
// flush, reopen the same dir with a fresh store, and the lookup must hit
// disk with byte-identical content — the warm-restart contract.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	hash := testHash("round-trip")
	want := []byte(`{"index":3,"hash":"abc","summary":{"cov":0.97}}` + "\n")

	s1, err := Open(Options{MemEntries: 4, Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	body, outcome, err := s1.Do(context.Background(), hash, func(ctx context.Context) ([]byte, error) {
		return want, nil
	})
	if err != nil || outcome != Computed || !bytes.Equal(body, want) {
		t.Fatalf("first Do = (%q, %v, %v)", body, outcome, err)
	}
	s1.Close() // flushes the pending disk write
	if st := s1.Stats(); st.PendingWrites != 0 || st.DiskEntries != 1 {
		t.Fatalf("after Close: %+v; want 0 pending, 1 disk entry", st)
	}

	s2 := openTestStore(t, Options{MemEntries: 4, Dir: dir})
	got, tier, ok := s2.LookupLocal(hash)
	if !ok || tier != TierDisk {
		t.Fatalf("restart lookup tier = %v ok = %t, want disk hit", tier, ok)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restart bytes = %q, want byte-identical %q", got, want)
	}
	// The disk hit promoted into memory: a second lookup is a mem hit.
	if _, tier, ok = s2.LookupLocal(hash); !ok || tier != TierMem {
		t.Fatalf("post-promotion lookup = (%v, %t), want mem hit", tier, ok)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.MemHits != 1 {
		t.Fatalf("stats = %+v; want DiskHits=1 MemHits=1", st)
	}
}

// TestDiskCorruptionIsAMiss flips a body byte of one persisted entry: the
// read must detect the bad checksum, count it and report a miss — never
// surface altered bytes — while neighbouring entries still hit. The drop
// record it appends keeps a restart from counting it again, and a
// recompute heals it.
func TestDiskCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	hashes := []string{testHash("corrupt-0"), testHash("corrupt-1"), testHash("corrupt-2")}
	body := func(i int) []byte { return []byte(fmt.Sprintf("pristine result bytes %d", i)) }
	s1, err := Open(Options{MemEntries: 4, Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i, h := range hashes {
		s1.Do(context.Background(), h, func(ctx context.Context) ([]byte, error) { return body(i), nil })
	}
	s1.Close()

	rec := findRecord(t, dir, kindPut, hashes[1])
	flipLogByte(t, dir, rec.off+int64(rec.size)-1) // the payload tail

	s2 := openTestStore(t, Options{MemEntries: 4, Dir: dir})
	if _, _, ok := s2.LookupLocal(hashes[1]); ok {
		t.Fatal("corrupted entry served as a hit")
	}
	if st := s2.Stats(); st.DiskCorruptions != 1 || st.DiskEntries != 2 {
		t.Fatalf("stats = %+v; want DiskCorruptions=1 DiskEntries=2", st)
	}
	for _, i := range []int{0, 2} {
		if got, tier, ok := s2.LookupLocal(hashes[i]); !ok || tier != TierDisk || !bytes.Equal(got, body(i)) {
			t.Fatalf("neighbour %d = (%q, %v, %t), want its disk bytes", i, got, tier, ok)
		}
	}
	s2.Close()

	// A restart replays the drop record: a plain miss, not counted again.
	s3 := openTestStore(t, Options{MemEntries: 4, Dir: dir})
	if _, _, ok := s3.LookupLocal(hashes[1]); ok {
		t.Fatal("dropped entry served after restart")
	}
	if st := s3.Stats(); st.DiskCorruptions != 0 {
		t.Fatalf("stats after restart = %+v; want DiskCorruptions=0", st)
	}
	// Deterministic recomputation restores the entry.
	got, outcome, err := s3.Do(context.Background(), hashes[1], func(ctx context.Context) ([]byte, error) {
		return body(1), nil
	})
	if err != nil || outcome != Computed || !bytes.Equal(got, body(1)) {
		t.Fatalf("recompute after corruption = (%q, %v, %v)", got, outcome, err)
	}
	s3.Close()
	s4 := openTestStore(t, Options{MemEntries: 4, Dir: dir})
	if got, tier, ok := s4.LookupLocal(hashes[1]); !ok || tier != TierDisk || !bytes.Equal(got, body(1)) {
		t.Fatalf("healed entry = (%q, %v, %t), want its disk bytes", got, tier, ok)
	}
}

// TestDiskEvictionHonorsByteCap fills the tier past its cap: the oldest
// entries go, the recent ones stay, and a restart replays exactly that
// set without evicting again.
func TestDiskEvictionHonorsByteCap(t *testing.T) {
	dir := t.TempDir()
	body := bytes.Repeat([]byte("x"), 100)
	framedSize := int64(recordHeaderSize + len(body))
	opt := Options{MemEntries: 1, Dir: dir, DiskMaxBytes: 3 * framedSize}
	s := openTestStore(t, opt)

	var hashes []string
	for i := 0; i < 6; i++ {
		h := testHash(fmt.Sprintf("evict-%d", i))
		hashes = append(hashes, h)
		s.Do(context.Background(), h, func(ctx context.Context) ([]byte, error) {
			return body, nil
		})
	}
	s.Close()

	st := s.Stats()
	if st.DiskEntries != 3 || st.DiskBytes != 3*framedSize {
		t.Fatalf("stats = %+v; want 3 entries / %d bytes resident", st, 3*framedSize)
	}
	if st.DiskEvictions != 3 {
		t.Fatalf("stats = %+v; want 3 evictions", st)
	}
	s2 := openTestStore(t, opt)
	if st := s2.Stats(); st.DiskEntries != 3 || st.DiskBytes != 3*framedSize || st.DiskEvictions != 0 {
		t.Fatalf("after restart: %+v; want the same 3 entries and no eviction", st)
	}
	for i, h := range hashes {
		_, tier, ok := s2.LookupLocal(h)
		if i < 3 && ok {
			t.Fatalf("old entry %d should be evicted, got a %v hit", i, tier)
		}
		if i >= 3 && (!ok || tier != TierDisk) {
			t.Fatalf("recent entry %d missing from disk (tier %v, ok %t)", i, tier, ok)
		}
	}
}

// TestDiskStartupCleansTempAndIgnoresForeignFiles: leftover .tmp- files
// from a crashed writer and the one-file-per-entry layout's 64-hex entry
// files are removed, and other names are left alone and never indexed.
func TestDiskStartupCleansTempAndIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, tmpPrefix+testHash("crashed")+"-123")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	entry := filepath.Join(dir, testHash("per-file entry"))
	if err := os.WriteFile(entry, []byte("HDLSCAS1 old layout"), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "README.txt")
	if err := os.WriteFile(foreign, []byte("not a cache entry"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := openTestStore(t, Options{Dir: dir})
	for _, gone := range []string{tmp, entry} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Fatalf("%s survived startup: %v", filepath.Base(gone), err)
		}
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("foreign file should be left alone: %v", err)
	}
	if st := s.Stats(); st.DiskEntries != 0 {
		t.Fatalf("index picked up foreign files: %+v", st)
	}
}

// TestDiskRestartPreservesLRUOrder: touch records replay the recency
// order, so an entry hit before shutdown outlives an entry last used
// before it, although it was written first.
func TestDiskRestartPreservesLRUOrder(t *testing.T) {
	dir := t.TempDir()
	hot, cold := testHash("hot"), testHash("cold")
	framedSize := int64(recordHeaderSize + len("payload-12345678"))
	opt := Options{MemEntries: 1, Dir: dir, DiskMaxBytes: 2 * framedSize}
	s1 := openTestStore(t, opt)
	for _, h := range []string{hot, cold} {
		s1.Do(context.Background(), h, func(ctx context.Context) ([]byte, error) {
			return []byte("payload-" + h[:8]), nil
		})
	}
	s1.Close()

	s2 := openTestStore(t, opt)
	if _, tier, ok := s2.LookupLocal(hot); !ok || tier != TierDisk {
		t.Fatalf("hot entry = (%v, %t), want a disk hit", tier, ok)
	}
	s2.Close()

	// Inserting one more entry pushes the tier over cap; "cold" must go.
	s3 := openTestStore(t, opt)
	s3.Do(context.Background(), testHash("new"), func(ctx context.Context) ([]byte, error) {
		return []byte("payload-newentry"), nil
	})
	s3.Close()
	s4 := openTestStore(t, opt)
	if _, _, ok := s4.LookupLocal(cold); ok {
		t.Fatal("least recently used entry should be evicted first")
	}
	if got, tier, ok := s4.LookupLocal(hot); !ok || tier != TierDisk || !bytes.Equal(got, []byte("payload-"+hot[:8])) {
		t.Fatalf("recently hit entry evicted out of order: (%q, %v, %t)", got, tier, ok)
	}
}

// TestPeerFillFetchesBeforeCompute: with a peer hook installed, a local
// miss consults peers first; a peer hit skips compute entirely and the
// bytes are cached locally for next time.
func TestPeerFillFetchesBeforeCompute(t *testing.T) {
	hash := testHash("peer")
	want := []byte("peer-computed bytes")
	var probes atomic.Int64
	s := openTestStore(t, Options{
		MemEntries: 16,
		Peers: func(ctx context.Context, h string) ([]byte, bool) {
			probes.Add(1)
			if h == hash {
				return want, true
			}
			return nil, false
		},
	})

	computeCalled := false
	body, outcome, err := s.Do(context.Background(), hash, func(ctx context.Context) ([]byte, error) {
		computeCalled = true
		return nil, errors.New("should not compute")
	})
	if err != nil || outcome != HitPeer || !bytes.Equal(body, want) {
		t.Fatalf("Do = (%q, %v, %v), want peer hit", body, outcome, err)
	}
	if computeCalled {
		t.Fatal("compute ran despite peer hit")
	}
	// Second call is a mem hit: the peer result was cached locally.
	if _, outcome, _ = s.Do(context.Background(), hash, nil); outcome != HitMem {
		t.Fatalf("second Do outcome = %v, want HitMem", outcome)
	}
	if probes.Load() != 1 {
		t.Fatalf("peer probed %d times, want 1", probes.Load())
	}
	if st := s.Stats(); st.PeerHits != 1 {
		t.Fatalf("stats = %+v; want PeerHits=1", st)
	}
}

// TestOutcomeLabels pins the X-Cache wire labels — scripts and the smoke
// suite grep for these exact strings.
func TestOutcomeLabels(t *testing.T) {
	want := map[Outcome]string{
		Computed:  "miss",
		Collapsed: "collapsed",
		HitMem:    "hit",
		HitDisk:   "hit-disk",
		HitPeer:   "hit-peer",
	}
	for o, label := range want {
		if o.String() != label {
			t.Fatalf("Outcome(%d).String() = %q, want %q", o, o.String(), label)
		}
	}
}

// TestCloseIsIdempotent: serve's Drain path may close the store more than
// once (repeated drains, cleanup drains); every call must be safe.
func TestCloseIsIdempotent(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	s.Close()
	// And puts after close are dropped, not panics.
	s.put(testHash("late"), []byte("late"))
	if st := s.Stats(); st.DiskWriteDrops != 1 {
		t.Fatalf("stats = %+v; want DiskWriteDrops=1", st)
	}
}

// TestIsHexHash guards the directory-scan filter.
func TestIsHexHash(t *testing.T) {
	if !isHexHash(strings.Repeat("ab", 32)) {
		t.Fatal("valid 64-hex name rejected")
	}
	for _, bad := range []string{"", "abc", strings.Repeat("g", 64), strings.Repeat("A", 64), strings.Repeat("a", 63)} {
		if isHexHash(bad) {
			t.Fatalf("isHexHash(%q) = true", bad)
		}
	}
}
