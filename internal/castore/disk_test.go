package castore

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// logRecord is one record found by walking a log file.
type logRecord struct {
	off  int64
	size int32
	kind uint32
	hash string // hex of the record's hash field
}

// readLog walks the log under dir the way replay does and returns its
// records up to the first that does not parse.
func readLog(t *testing.T, dir string) []logRecord {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	var recs []logRecord
	for off := int64(fileHeaderSize); off+recordHeaderSize <= int64(len(raw)); {
		kind, n, ok := parseHeader(raw[off : off+recordHeaderSize])
		if !ok || off+recordHeaderSize+int64(n) > int64(len(raw)) {
			break
		}
		recs = append(recs, logRecord{off, int32(recordHeaderSize + n), kind, fmt.Sprintf("%x", raw[off+20:off+recordHeaderSize])})
		off += recordHeaderSize + int64(n)
	}
	return recs
}

// findRecord returns the last record of kind for hash.
func findRecord(t *testing.T, dir string, kind uint32, hash string) logRecord {
	t.Helper()
	recs := readLog(t, dir)
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].kind == kind && recs[i].hash == hash {
			return recs[i]
		}
	}
	t.Fatalf("no record of kind %d for %s", kind, hash)
	return logRecord{}
}

// flipLogByte inverts the log byte at off.
func flipLogByte(t *testing.T, dir string, off int64) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, LogName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func logSize(t *testing.T, dir string) int64 {
	t.Helper()
	info, err := os.Stat(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// testBody is the body the log tests store under testHash(name).
func testBody(name string, n int) []byte {
	return bytes.Repeat([]byte(name+";"), n/(len(name)+1)+1)[:n]
}

func fillStore(t *testing.T, dir string, names []string, n int) {
	t.Helper()
	s, err := Open(Options{MemEntries: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		body := testBody(name, n)
		s.Do(context.Background(), testHash(name), func(context.Context) ([]byte, error) { return body, nil })
	}
	s.Close()
}

// TestDiskTornTail cuts the log inside a record's header, inside its body,
// and inside its body followed by garbage: each reopens with every record
// before the cut, truncates the tail, and appends after it again.
func TestDiskTornTail(t *testing.T) {
	names := []string{"torn-0", "torn-1", "torn-2", "torn-3"}
	pristine := t.TempDir()
	fillStore(t, pristine, names, 200)
	raw, err := os.ReadFile(filepath.Join(pristine, LogName))
	if err != nil {
		t.Fatal(err)
	}
	last := readLog(t, pristine)[3]
	for _, c := range []struct {
		name    string
		cut     int64
		garbage []byte
	}{
		{"inside header", last.off + 20, nil},
		{"inside body", last.off + recordHeaderSize + 50, nil},
		{"inside body then garbage", last.off + recordHeaderSize + 50, bytes.Repeat([]byte{0xA5, 'H', 0}, 40)},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			torn := append(append([]byte{}, raw[:c.cut]...), c.garbage...)
			if err := os.WriteFile(filepath.Join(dir, LogName), torn, 0o644); err != nil {
				t.Fatal(err)
			}
			s := openTestStore(t, Options{MemEntries: 4, Dir: dir})
			if got := logSize(t, dir); got != last.off {
				t.Fatalf("log is %d bytes after open, want the torn tail cut at %d", got, last.off)
			}
			for i, name := range names[:3] {
				if got, tier, ok := s.LookupLocal(testHash(name)); !ok || tier != TierDisk || !bytes.Equal(got, testBody(name, 200)) {
					t.Fatalf("record %d before the cut = (%v, %t)", i, tier, ok)
				}
			}
			if _, _, ok := s.LookupLocal(testHash(names[3])); ok {
				t.Fatal("the torn record served as a hit")
			}
			if st := s.Stats(); st.DiskCorruptions != 0 || st.DiskEntries != 3 {
				t.Fatalf("stats = %+v; want 3 entries and no corruption", st)
			}
			s.Do(context.Background(), testHash(names[3]), func(context.Context) ([]byte, error) {
				return testBody(names[3], 200), nil
			})
			s.Close()
			s2 := openTestStore(t, Options{MemEntries: 4, Dir: dir})
			for _, name := range names {
				if got, tier, ok := s2.LookupLocal(testHash(name)); !ok || tier != TierDisk || !bytes.Equal(got, testBody(name, 200)) {
					t.Fatalf("%s after the heal = (%v, %t)", name, tier, ok)
				}
			}
		})
	}
}

// overgrow puts n entries of size bytes into a tier capped at max, so
// evicted records pile up as dead bytes, and returns their names.
func overgrow(t *testing.T, d *diskTier, n, size int) []string {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("grow-%d", i)
		d.put(testHash(names[i]), testBody(names[i], size))
	}
	return names
}

// liveNames returns the names whose entries the tier still indexes.
func liveNames(d *diskTier, names []string) []string {
	var live []string
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, name := range names {
		var h [hashSize]byte
		decodeHash(testHash(name), &h)
		if _, ok := d.idx.slots[keyOf(&h)]; ok {
			live = append(live, name)
		}
	}
	return live
}

// TestDiskCompactionKeepsLiveBytes overgrows a small tier and compacts it:
// the new log holds exactly the file header and the live records, every
// live entry hits with its bytes, evicted ones miss, and a restart replays
// the same set in the same order.
func TestDiskCompactionKeepsLiveBytes(t *testing.T) {
	dir := t.TempDir()
	d, err := openDiskTier(dir, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.close)
	names := overgrow(t, d, 5000, 1000)
	entries, live := d.stats()
	if got := logSize(t, dir); got <= 2*live+compactSlack {
		t.Fatalf("log is %d bytes with %d live; the test needs it overgrown", got, live)
	}
	if len(d.kick) != 1 {
		t.Fatal("an overgrown log did not ask for a compaction")
	}
	d.compact()
	if got := logSize(t, dir); got != fileHeaderSize+live {
		t.Fatalf("compacted log is %d bytes, want %d (header + live)", got, fileHeaderSize+live)
	}
	if e, b := d.stats(); e != entries || b != live {
		t.Fatalf("compaction changed the index: %d entries / %d bytes, want %d / %d", e, b, entries, live)
	}
	kept := liveNames(d, names)
	if len(kept) != entries {
		t.Fatalf("%d live names, want %d", len(kept), entries)
	}
	var order []string
	for _, r := range readLog(t, dir) {
		order = append(order, r.hash)
	}
	d.close()

	d2, err := openDiskTier(dir, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d2.close)
	for i, name := range kept {
		if order[i] != testHash(name) {
			t.Fatalf("compacted record %d is %s, want %s oldest first", i, order[i], name)
		}
		if got, ok := d2.get(testHash(name)); !ok || !bytes.Equal(got, testBody(name, 1000)) {
			t.Fatalf("live entry %s lost by compaction", name)
		}
	}
	if _, ok := d2.get(testHash(names[0])); ok {
		t.Fatal("an evicted entry came back after compaction")
	}
}

// TestDiskStoreCompactsOnItsOwn drives the same overgrowth through the
// store: its writer goroutine compacts when asked, and the log ends under
// twice the live bytes plus compactSlack.
func TestDiskStoreCompactsOnItsOwn(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Options{MemEntries: 4, Dir: dir, DiskMaxBytes: 64 << 10})
	var written int64
	for i := 0; i < 5000; i++ {
		name := fmt.Sprintf("store-grow-%d", i)
		body := testBody(name, 1000)
		written += recordHeaderSize + 1000
		s.Do(context.Background(), testHash(name), func(context.Context) ([]byte, error) { return body, nil })
		if i%256 == 255 {
			waitWrites(t, s)
		}
	}
	s.Close()
	st := s.Stats()
	size := logSize(t, dir)
	// The writer serves a compaction request between two puts, so the log
	// may overshoot the bound by the puts of one batch.
	if size > 2*st.DiskBytes+compactSlack+256*(recordHeaderSize+1000) || size >= written/2 {
		t.Fatalf("log is %d bytes after %d written with %d live; no compaction kept it bounded", size, written, st.DiskBytes)
	}
	if st.DiskWriteDrops != 0 || st.DiskWriteErrors != 0 {
		t.Fatalf("stats = %+v; want every write persisted", st)
	}
}

func waitWrites(t *testing.T, s *Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().PendingWrites > 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never drained")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDiskCompactionRacesLookups runs lookups, and the drops of entries
// corrupted beforehand, against a compaction (run under -race in CI):
// every hit returns its bytes, each corrupted entry is dropped exactly
// once, and a restart agrees with the index the compaction left.
func TestDiskCompactionRacesLookups(t *testing.T) {
	dir := t.TempDir()
	d, err := openDiskTier(dir, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	names := overgrow(t, d, 4800, 1000)
	live := liveNames(d, names)
	corrupt := map[string]bool{}
	for _, name := range live[len(live)-8:] {
		corrupt[name] = true
	}
	d.close()
	for name := range corrupt {
		rec := findRecord(t, dir, kindPut, testHash(name))
		flipLogByte(t, dir, rec.off+recordHeaderSize+7)
	}
	d, err = openDiskTier(dir, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.close)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; ; round++ {
				for k := g; k < len(live); k += 4 {
					name := live[(k+round)%len(live)]
					got, ok := d.get(testHash(name))
					if ok && (corrupt[name] || !bytes.Equal(got, testBody(name, 1000))) {
						errs <- fmt.Errorf("%s returned wrong bytes", name)
						return
					}
					if !ok && !corrupt[name] {
						errs <- fmt.Errorf("%s missed during compaction", name)
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(g)
	}
	d.compact()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := d.corruptions.Load(); got != int64(len(corrupt)) {
		t.Fatalf("corruptions = %d, want %d", got, len(corrupt))
	}
	entries, bytesLive := d.stats()
	want := liveNames(d, names)
	d.close()

	d2, err := openDiskTier(dir, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d2.close)
	if e, b := d2.stats(); e != entries || b != bytesLive {
		t.Fatalf("restart indexes %d entries / %d bytes, want %d / %d", e, b, entries, bytesLive)
	}
	if got := liveNames(d2, names); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatal("restart indexes another set of entries than the compacted tier")
	}
	for _, name := range want {
		if got, ok := d2.get(testHash(name)); !ok || !bytes.Equal(got, testBody(name, 1000)) {
			t.Fatalf("%s lost across the compaction", name)
		}
	}
	if d2.corruptions.Load() != 0 {
		t.Fatal("a dropped entry was counted again after restart")
	}
}

// TestDiskKeyCollision stores two hashes that share their first 8 bytes,
// the index key: either may cost a miss, but neither ever returns the
// other's bytes, and neither counts as a corruption, live or replayed.
func TestDiskKeyCollision(t *testing.T) {
	dir := t.TempDir()
	prefix := strings.Repeat("ab", 8)
	a := prefix + testHash("collide-a")[16:]
	b := prefix + testHash("collide-b")[16:]
	bodyA, bodyB := []byte("bytes of a"), []byte("bytes of b")

	s1 := openTestStore(t, Options{MemEntries: 1, Dir: dir})
	for _, c := range []struct {
		hash string
		body []byte
	}{{a, bodyA}, {b, bodyB}} {
		s1.Do(context.Background(), c.hash, func(context.Context) ([]byte, error) { return c.body, nil })
	}
	s1.Close()
	s := openTestStore(t, Options{MemEntries: 1, Dir: dir})
	if got, _, ok := s.LookupLocal(b); ok && !bytes.Equal(got, bodyB) {
		t.Fatalf("b returned %q", got)
	}
	if got, tier, ok := s.LookupLocal(a); !ok || tier != TierDisk || !bytes.Equal(got, bodyA) {
		t.Fatalf("a = (%q, %v, %t), want its disk bytes", got, tier, ok)
	}
	s.Close()

	// A log that holds b's record after a's indexes b's: a misses.
	var h [hashSize]byte
	decodeHash(b, &h)
	f, err := os.OpenFile(filepath.Join(dir, LogName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(appendRecord(nil, kindPut, &h, bodyB)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2 := openTestStore(t, Options{MemEntries: 1, Dir: dir})
	if got, _, ok := s2.LookupLocal(a); ok && !bytes.Equal(got, bodyA) {
		t.Fatalf("a returned %q after replay", got)
	}
	if got, tier, ok := s2.LookupLocal(b); !ok || tier != TierDisk || !bytes.Equal(got, bodyB) {
		t.Fatalf("b = (%q, %v, %t) after replay, want its disk bytes", got, tier, ok)
	}
	if st := s2.Stats(); st.DiskCorruptions != 0 || s.Stats().DiskCorruptions != 0 {
		t.Fatalf("a key collision counted as corruption: %+v", st)
	}
}

// TestDiskLogFencesPlatform: a log whose header names another platform or
// format version is removed at Open, so its entries are misses and the
// tier starts empty.
func TestDiskLogFencesPlatform(t *testing.T) {
	other := "arm64"
	if runtime.GOARCH == other {
		other = "amd64"
	}
	for _, c := range []struct {
		name  string
		patch func(hdr []byte)
	}{
		{"platform", func(hdr []byte) { copy(hdr[12:], append([]byte(other), make([]byte, 20-len(other))...)) }},
		{"version", func(hdr []byte) { binary.LittleEndian.PutUint32(hdr[8:], logVersion+1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			fillStore(t, dir, []string{"fence-0", "fence-1"}, 64)
			path := filepath.Join(dir, LogName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			c.patch(raw[:fileHeaderSize])
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			s := openTestStore(t, Options{MemEntries: 4, Dir: dir})
			if _, _, ok := s.LookupLocal(testHash("fence-0")); ok {
				t.Fatal("an entry of a foreign log served as a hit")
			}
			if st := s.Stats(); st.DiskEntries != 0 || st.DiskCorruptions != 0 {
				t.Fatalf("stats = %+v; want an empty tier", st)
			}
			got, err := os.ReadFile(path)
			if err != nil || !bytes.Equal(got, fileHeader()) {
				t.Fatalf("log after open = %q (%v), want only this build's header", got, err)
			}
		})
	}
}

// TestDiskIndexHeapPerEntry reopens a 32,768-entry tier and bounds the
// index's heap after GC at 80 bytes per entry. The slot pages never move
// as the index grows.
func TestDiskIndexHeapPerEntry(t *testing.T) {
	const n = 32768
	dir := t.TempDir()
	d, err := openDiskTier(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	var first *slot
	for i := 0; i < n; i++ {
		d.put(testHash(fmt.Sprint("heap-", i)), []byte("x"))
		if i == 0 {
			first = d.idx.at(0)
		}
	}
	if d.idx.at(0) != first {
		t.Fatal("the first slot moved as the index grew")
	}
	d.close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d2, err := openDiskTier(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.close()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if e, _ := d2.stats(); e != n {
		t.Fatalf("reopened %d entries, want %d", e, n)
	}
	perEntry := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("index heap: %.1f B per entry", perEntry)
	if perEntry > 80 {
		t.Fatalf("index holds %.1f B of heap per entry, want at most 80", perEntry)
	}
	runtime.KeepAlive(d2)
}

// FuzzDiskLog mutates a log of known records — byte flips, a truncation,
// appended bytes — and reopens it twice: every hit must return exactly the
// body written for its hash.
func FuzzDiskLog(f *testing.F) {
	dir := f.TempDir()
	names := []string{"fuzz-0", "fuzz-1", "fuzz-2", "fuzz-3", "fuzz-4"}
	d, err := openDiskTier(dir, 4*(recordHeaderSize+100))
	if err != nil {
		f.Fatal(err)
	}
	for i, name := range names {
		d.put(testHash(name), testBody(name, 60+10*i))
		if i == 2 {
			d.get(testHash(names[0])) // a touch record
		}
	}
	d.close() // the fifth put evicted one: a drop record
	pristine, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint32(0), byte(0), uint32(0), byte(0), uint32(0), []byte(nil))
	f.Add(uint32(fileHeaderSize+30), byte(1), uint32(200), byte(0x80), uint32(0), []byte(nil))
	f.Add(uint32(0), byte(0), uint32(0), byte(0), uint32(len(pristine)-9), []byte("HDLSCREC"))
	f.Add(uint32(fileHeaderSize+recordHeaderSize+3), byte(4), uint32(0), byte(0), uint32(0), pristine[fileHeaderSize:fileHeaderSize+recordHeaderSize])
	f.Fuzz(func(t *testing.T, at1 uint32, x1 byte, at2 uint32, x2 byte, cut uint32, extra []byte) {
		raw := append([]byte{}, pristine...)
		raw[int(at1)%len(raw)] ^= x1
		raw[int(at2)%len(raw)] ^= x2
		if cut != 0 {
			raw = raw[:int(cut)%(len(raw)+1)]
		}
		raw = append(raw, extra...)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, LogName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		for open := 0; open < 2; open++ {
			d, err := openDiskTier(dir, 4*(recordHeaderSize+100))
			if err != nil {
				t.Fatal(err)
			}
			for i, name := range names {
				if got, ok := d.get(testHash(name)); ok && !bytes.Equal(got, testBody(name, 60+10*i)) {
					t.Fatalf("open %d: %s returned %q", open, name, got)
				}
			}
			d.close()
		}
	})
}
