package castore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// newFaultyTier opens a disk tier whose write seam fails whenever *failing
// is true, counting every attempted write.
func newFaultyTier(t *testing.T, failing *bool, attempts *int) *diskTier {
	t.Helper()
	d, err := openDiskTier(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.close)
	real := d.writeAt
	d.writeAt = func(p []byte, off int64) (int, error) {
		*attempts++
		if *failing {
			return 0, errors.New("injected: no space left on device")
		}
		return real(p, off)
	}
	return d
}

// TestDiskTierDisablesAfterConsecutiveWriteFailures pins the lockout
// policy: ENOSPC-style failures are counted per attempt, and after
// diskWriteFailureLimit consecutive failures the tier stops issuing
// writes entirely — disk is an accelerator, never a dependency, so a dead
// disk must cost a bounded number of failed syscalls, not one per cell
// forever. Reads of already-persisted entries keep working throughout.
func TestDiskTierDisablesAfterConsecutiveWriteFailures(t *testing.T) {
	failing := false
	attempts := 0
	d := newFaultyTier(t, &failing, &attempts)

	// A healthy write persists and is readable back.
	good := testHash("pre-fault")
	d.put(good, []byte(`{"ok":1}`))
	if got, ok := d.get(good); !ok || !bytes.Equal(got, []byte(`{"ok":1}`)) {
		t.Fatalf("pre-fault entry unreadable: %q %v", got, ok)
	}

	failing = true
	base := attempts
	for i := 0; i < diskWriteFailureLimit+10; i++ {
		d.put(testHash(fmt.Sprintf("fail-%d", i)), []byte("doomed"))
	}
	if got := attempts - base; got != diskWriteFailureLimit {
		t.Errorf("write attempts after fault = %d, want exactly %d (then lockout)",
			got, diskWriteFailureLimit)
	}
	if !d.disabled.Load() {
		t.Fatal("tier not disabled after consecutive failures")
	}
	if got := d.writeErrors.Load(); got != int64(diskWriteFailureLimit) {
		t.Errorf("writeErrors = %d, want %d", got, diskWriteFailureLimit)
	}
	if d.disabledDrops.Load() != 10 {
		t.Errorf("disabledDrops = %d, want 10", d.disabledDrops.Load())
	}

	// The disk recovering does not re-enable the tier (lockout is for the
	// process lifetime), and reads still serve persisted entries.
	failing = false
	d.put(testHash("post-lockout"), []byte("still dropped"))
	if attempts != base+diskWriteFailureLimit {
		t.Error("disabled tier issued a write")
	}
	if got, ok := d.get(good); !ok || !bytes.Equal(got, []byte(`{"ok":1}`)) {
		t.Errorf("read-after-lockout broken: %q %v", got, ok)
	}
}

// TestDiskTierWriteFailureCounterResets pins that intermittent failures
// below the consecutive limit never trip the lockout: one success resets
// the budget.
func TestDiskTierWriteFailureCounterResets(t *testing.T) {
	failing := false
	attempts := 0
	d := newFaultyTier(t, &failing, &attempts)

	for round := 0; round < 3; round++ {
		failing = true
		for i := 0; i < diskWriteFailureLimit-1; i++ {
			d.put(testHash(fmt.Sprintf("flaky-%d-%d", round, i)), []byte("x"))
		}
		failing = false
		d.put(testHash(fmt.Sprintf("ok-%d", round)), []byte("y"))
	}
	if d.disabled.Load() {
		t.Fatal("intermittent failures below the limit tripped the lockout")
	}
	if got := d.writeErrors.Load(); got != int64(3*(diskWriteFailureLimit-1)) {
		t.Errorf("writeErrors = %d, want %d", got, 3*(diskWriteFailureLimit-1))
	}
}

// TestStoreStatsReportDiskDisabled pins the surfaced health signal: the
// store's Stats (and through them /metrics) must expose the lockout and
// fold disabled-tier drops into the write-drop counter.
func TestStoreStatsReportDiskDisabled(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, MemEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fail := errors.New("injected write failure")
	s.disk.writeAt = func([]byte, int64) (int, error) { return 0, fail }

	for i := 0; i < diskWriteFailureLimit+3; i++ {
		s.put(testHash(fmt.Sprintf("stats-%d", i)), []byte("z"))
	}
	// puts are async through the writer goroutine; wait for it to drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().PendingWrites > 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never drained")
		}
		time.Sleep(time.Millisecond)
	}
	st := s.Stats()
	if !st.DiskDisabled {
		t.Fatal("Stats.DiskDisabled not set after lockout")
	}
	if st.DiskWriteErrors != int64(diskWriteFailureLimit) {
		t.Errorf("DiskWriteErrors = %d, want %d", st.DiskWriteErrors, diskWriteFailureLimit)
	}
	if st.DiskWriteDrops != 3 {
		t.Errorf("DiskWriteDrops = %d, want 3", st.DiskWriteDrops)
	}
}

// TestWriteFileAtomicLeavesNoPartials pins the exported helper's contract:
// the destination appears complete or not at all, temp debris is cleaned
// on failure, and the temp prefix matches what startup scans sweep.
func TestWriteFileAtomicLeavesNoPartials(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "record.json")
	if err := WriteFileAtomic(path, []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, []byte(`{"a":1}`)) {
		t.Fatalf("read back: %q %v", got, err)
	}
	// Overwrite is atomic too.
	if err := WriteFileAtomic(path, []byte(`{"a":2}`)); err != nil {
		t.Fatal(err)
	}
	if got, _ = os.ReadFile(path); !bytes.Equal(got, []byte(`{"a":2}`)) {
		t.Fatalf("overwrite read back %q", got)
	}
	// A failing write (unwritable directory) must not leave temp files.
	bad := filepath.Join(dir, "no-such-subdir", "x")
	if err := WriteFileAtomic(bad, []byte("y")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "record.json" {
			t.Errorf("unexpected debris %q", e.Name())
		}
	}
	if TempFilePrefix != tmpPrefix {
		t.Errorf("TempFilePrefix %q drifted from the disk tier's %q", TempFilePrefix, tmpPrefix)
	}
}
