package castore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// The disk tier keeps its entries in one append-only log per cache
// directory. The log opens with a 32-byte file header naming the format
// version and the platform (runtime.GOARCH): Open discards a log whose
// header differs, so an entry written by another version or platform is a
// miss that recomputes. Records follow back to back, each a 52-byte header
// and a body:
//
//	"HDLSCREC" ‖ u32le CRC-32C ‖ u32le kind ‖ u32le length ‖ hash[32] ‖ body
//
// The CRC covers every byte after itself, so a change anywhere in a record
// is caught where the record is read. A put record carries one result
// under its raw 32-byte hash. Touch and drop records have no body; they
// replay an LRU refresh and a removal, and name their entry by the hash's
// first 8 bytes (the index key), the rest of their hash field zero.
// DESIGN.md §12 has the crash, corruption and compaction story.
const (
	// LogName is the disk tier's log file under Options.Dir.
	LogName          = "results.log"
	logMagic         = "HDLSCLOG"
	logVersion       = 1
	fileHeaderSize   = 32 // magic + u32le version + GOARCH, zero-padded
	recMagic         = "HDLSCREC"
	recordHeaderSize = 52
	hashSize         = 32
	maxBody          = 1 << 30 // replay rejects longer lengths as torn
	// compactSlack is the log growth past twice the live bytes that
	// triggers a compaction.
	compactSlack = 4 << 20
)

// Record kinds.
const (
	kindPut uint32 = 1 + iota
	kindTouch
	kindDrop
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// diskTier is the persistent tier: one log under dir and an in-memory LRU
// index of its live records, rebuilt by replaying the log at startup and
// bounded by a byte cap. All appends and every read go through mu; a read
// copies the record into a fresh slice, so returned bytes are immune to
// later eviction or compaction.
type diskTier struct {
	dir, path string
	max       int64

	// writeAt writes a batch of records at an offset of the log. A seam
	// (the log file's WriteAt by default) so fault tests can inject
	// ENOSPC-style failures without filling a real filesystem.
	writeAt func(p []byte, off int64) (int, error)

	mu    sync.Mutex
	f     *os.File // the log; nil once closed
	end   int64    // where the next record goes
	idx   diskIndex
	total int64  // live record bytes
	buf   []byte // record scratch, used under mu

	// kick asks the store's writer goroutine to compact the log.
	kick chan struct{}

	corruptions atomic.Int64
	evictions   atomic.Int64
	writeErrors atomic.Int64

	// consecFails counts consecutive write failures; at
	// diskWriteFailureLimit the tier flips disabled and stays off for the
	// process lifetime. Disk is an accelerator, never a dependency: a dying
	// disk (ENOSPC, pulled mount, permissions) must cost bounded error
	// handling, not an error per cell forever. Reads keep working — entries
	// already persisted stay servable. disabledDrops counts the puts
	// skipped while disabled.
	consecFails   atomic.Int64
	disabled      atomic.Bool
	disabledDrops atomic.Int64
}

// diskWriteFailureLimit is the consecutive-failure budget before the tier
// stops attempting writes (see diskTier.disabled).
const diskWriteFailureLimit = 5

// openDiskTier opens (creating if needed) the log under dir and replays it
// into the index. It removes what the one-file-per-entry layout left in
// dir (64-hex entry files) and stale temp files, and leaves other files
// alone.
func openDiskTier(dir string, max int64) (*diskTier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("castore: cache dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("castore: scan cache dir: %w", err)
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, tmpPrefix) || (isHexHash(name) && !e.IsDir()) {
			os.Remove(filepath.Join(dir, name))
		}
	}
	d := &diskTier{
		dir:  dir,
		path: filepath.Join(dir, LogName),
		max:  max,
		idx:  newDiskIndex(),
		kick: make(chan struct{}, 1),
	}
	d.writeAt = func(p []byte, off int64) (int, error) { return d.f.WriteAt(p, off) }
	if d.f, err = os.OpenFile(d.path, os.O_RDWR|os.O_CREATE, 0o644); err != nil {
		return nil, fmt.Errorf("castore: open log: %w", err)
	}
	if err := d.replay(); err != nil {
		d.f.Close()
		return nil, fmt.Errorf("castore: replay log: %w", err)
	}
	d.mu.Lock()
	d.evictOverCapLocked()
	d.kickIfOvergrownLocked()
	d.mu.Unlock()
	return d, nil
}

// fileHeader is the header this build writes and accepts.
func fileHeader() []byte {
	h := make([]byte, fileHeaderSize)
	copy(h, logMagic)
	binary.LittleEndian.PutUint32(h[len(logMagic):], logVersion)
	copy(h[len(logMagic)+4:], runtime.GOARCH)
	return h
}

// replay rebuilds the index from the log: put records insert, touch
// records refresh, drop records remove, in log order, so the restarted LRU
// order is the one the last process left. The first record that does not
// parse or runs past the end of the file starts the torn tail, which is
// truncated away. A log whose header is not this build's is replaced by an
// empty one.
func (d *diskTier) replay() error {
	info, err := d.f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	want := fileHeader()
	got := make([]byte, fileHeaderSize)
	if _, err := d.f.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
		d.f.Close()
		os.Remove(d.path)
		if d.f, err = os.OpenFile(d.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644); err != nil {
			return err
		}
		d.end = fileHeaderSize
		_, err = d.f.WriteAt(want, 0)
		return err
	}
	r := bufio.NewReaderSize(io.NewSectionReader(d.f, fileHeaderSize, size-fileHeaderSize), 64<<10)
	off := int64(fileHeaderSize)
	var hdr [recordHeaderSize]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break
		}
		kind, n, ok := parseHeader(hdr[:])
		if !ok || int64(n) > size-off-recordHeaderSize {
			break
		}
		if _, err := r.Discard(int(n)); err != nil {
			break
		}
		key := binary.LittleEndian.Uint64(hdr[20:])
		i, found := d.idx.slots[key]
		switch {
		case kind == kindPut && found:
			s := d.idx.at(i)
			d.total += int64(recordHeaderSize+n) - int64(s.size)
			s.off, s.size = off, int32(recordHeaderSize+n)
			d.idx.touch(i)
		case kind == kindPut:
			d.idx.insert(key, off, int32(recordHeaderSize+n))
			d.total += int64(recordHeaderSize + n)
		case kind == kindTouch && found:
			d.idx.touch(i)
		case kind == kindDrop && found:
			d.total -= int64(d.idx.at(i).size)
			d.idx.remove(i)
		}
		off += int64(recordHeaderSize + n)
	}
	if off < size {
		// Best effort: appends overwrite the tail from off either way.
		d.f.Truncate(off)
	}
	d.end = off
	return nil
}

// parseHeader reads a record header as replay sees it: the magic, a known
// kind, and a length that fits; a touch or drop record, having no body,
// must also match its checksum. A put's checksum covers its body and is
// checked when the record is read.
func parseHeader(hdr []byte) (kind, n uint32, ok bool) {
	if string(hdr[:len(recMagic)]) != recMagic {
		return 0, 0, false
	}
	kind = binary.LittleEndian.Uint32(hdr[12:])
	n = binary.LittleEndian.Uint32(hdr[16:])
	switch kind {
	case kindPut:
		return kind, n, n <= maxBody
	case kindTouch, kindDrop:
		return kind, 0, n == 0 && crc32.Checksum(hdr[12:], crcTable) == binary.LittleEndian.Uint32(hdr[8:])
	}
	return 0, 0, false
}

// appendRecord appends one framed record to dst.
func appendRecord(dst []byte, kind uint32, hash *[hashSize]byte, body []byte) []byte {
	start := len(dst)
	dst = append(dst, recMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // the CRC, set below
	dst = binary.LittleEndian.AppendUint32(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = append(dst, hash[:]...)
	dst = append(dst, body...)
	binary.LittleEndian.PutUint32(dst[start+len(recMagic):], crc32.Checksum(dst[start+12:], crcTable))
	return dst
}

// appendMark appends a touch or drop record for the entry keyed key.
func appendMark(dst []byte, kind uint32, key uint64) []byte {
	var h [hashSize]byte
	binary.LittleEndian.PutUint64(h[:], key)
	return appendRecord(dst, kind, &h, nil)
}

// Verdicts of checkRecord.
const (
	recordOK    = iota // the put record of the hash asked for
	recordOther        // an intact put record of another hash with the same key
	recordBad          // a record whose bytes changed
)

// checkRecord verifies a record read from the log for hash.
func checkRecord(rec []byte, hash *[hashSize]byte) int {
	if len(rec) < recordHeaderSize || string(rec[:len(recMagic)]) != recMagic ||
		crc32.Checksum(rec[12:], crcTable) != binary.LittleEndian.Uint32(rec[8:]) ||
		binary.LittleEndian.Uint32(rec[12:]) != kindPut ||
		int(binary.LittleEndian.Uint32(rec[16:])) != len(rec)-recordHeaderSize {
		return recordBad
	}
	if !bytes.Equal(rec[20:recordHeaderSize], hash[:]) {
		return recordOther
	}
	return recordOK
}

// decodeHash decodes a canonical config hash: 64 lower-case hex digits.
func decodeHash(s string, h *[hashSize]byte) bool {
	if len(s) != 2*hashSize {
		return false
	}
	for i := range h {
		hi, ok1 := unhex(s[2*i])
		lo, ok2 := unhex(s[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		h[i] = hi<<4 | lo
	}
	return true
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// isHexHash reports whether name looks like a canonical config hash, the
// name the one-file-per-entry layout gave each entry file.
func isHexHash(name string) bool {
	var h [hashSize]byte
	return decodeHash(name, &h)
}

// keyOf is the index key of a hash: its first 8 bytes.
func keyOf(h *[hashSize]byte) uint64 { return binary.LittleEndian.Uint64(h[:8]) }

// tmpPrefix marks in-progress writes: WriteFileAtomic's temp files and a
// compaction's new log. Startup removes them.
const tmpPrefix = ".tmp-"

// get reads and verifies the record for hash: one pread of its extent,
// checked against the hash, the length and the checksum. A hit appends a
// touch record so the LRU refresh survives restarts. A failed check
// appends a drop record and reports a miss: a corrupt entry must never
// replay altered bytes, and deterministic recomputation restores it for
// free. An intact record of another hash with the same key is a plain
// miss.
func (d *diskTier) get(hash string) ([]byte, bool) {
	var h [hashSize]byte
	if !decodeHash(hash, &h) {
		return nil, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	i, ok := d.idx.slots[keyOf(&h)]
	if !ok || d.f == nil {
		return nil, false
	}
	s := d.idx.at(i)
	rec := make([]byte, s.size)
	if _, err := d.f.ReadAt(rec, s.off); err != nil {
		// The log is shorter than the index (another process on a shared
		// directory truncated it); a plain miss.
		d.total -= int64(s.size)
		d.idx.remove(i)
		return nil, false
	}
	switch checkRecord(rec, &h) {
	case recordOther:
		return nil, false
	case recordBad:
		d.corruptions.Add(1)
		key := s.key
		d.total -= int64(s.size)
		d.idx.remove(i)
		d.appendLocked(appendMark(d.buf[:0], kindDrop, key))
		return nil, false
	}
	if i != d.idx.head {
		d.idx.touch(i)
		d.appendLocked(appendMark(d.buf[:0], kindTouch, s.key))
	}
	return rec[recordHeaderSize:], true
}

// put appends body's record under hash as one write, with a drop record
// for each entry the byte cap evicts riding the same write. Write failures
// (ENOSPC, permissions, a dead mount) are counted, and
// diskWriteFailureLimit consecutive failures disable further writes for
// the process lifetime — the tier degrades to read-only instead of paying
// an I/O error per cell. Only the store's writer goroutine calls put.
func (d *diskTier) put(hash string, body []byte) {
	if d.disabled.Load() {
		d.disabledDrops.Add(1)
		return
	}
	var h [hashSize]byte
	if !decodeHash(hash, &h) {
		return
	}
	key := keyOf(&h)
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, exists := d.idx.slots[key]; exists || d.f == nil {
		return // deterministic results: the stored bytes are already identical
	}
	rec := appendRecord(d.buf[:0], kindPut, &h, body)
	size := int32(len(rec))
	// The oldest entries go until the new one fits; the new entry itself
	// always stays, so one oversized result cannot empty the tier.
	victims := 0
	over := d.total + int64(size) - d.max
	for i := d.idx.tail; over > 0 && i != none; i = d.idx.at(i).prev {
		over -= int64(d.idx.at(i).size)
		rec = appendMark(rec, kindDrop, d.idx.at(i).key)
		victims++
	}
	off := d.end
	if !d.appendLocked(rec) {
		return
	}
	d.idx.insert(key, off, size)
	d.total += int64(size)
	for ; victims > 0; victims-- {
		d.total -= int64(d.idx.at(d.idx.tail).size)
		d.idx.remove(d.idx.tail)
		d.evictions.Add(1)
	}
}

// appendLocked writes records at the end of the log, keeping rec as the
// scratch buffer. A failure leaves the end where it was, so the next write
// overwrites whatever part of rec reached the file. Caller holds d.mu.
func (d *diskTier) appendLocked(rec []byte) bool {
	d.buf = rec[:0]
	if d.disabled.Load() {
		return false
	}
	if _, err := d.writeAt(rec, d.end); err != nil {
		d.writeFailed()
		return false
	}
	d.consecFails.Store(0)
	d.end += int64(len(rec))
	d.kickIfOvergrownLocked()
	return true
}

// writeFailed counts one failed write toward the lockout.
func (d *diskTier) writeFailed() {
	d.writeErrors.Add(1)
	if d.consecFails.Add(1) >= diskWriteFailureLimit {
		d.disabled.Store(true)
	}
}

// kickIfOvergrownLocked asks for a compaction once the log exceeds twice
// the live bytes plus compactSlack. Caller holds d.mu.
func (d *diskTier) kickIfOvergrownLocked() {
	if d.end > 2*d.total+compactSlack {
		select {
		case d.kick <- struct{}{}:
		default:
		}
	}
}

// evictOverCapLocked removes least-recently-used entries until the tier
// fits its byte cap, keeping at least the newest entry, and logs their
// drop records in one write. Startup calls it, for a cap lowered since the
// log was written. Caller holds d.mu.
func (d *diskTier) evictOverCapLocked() {
	rec := d.buf[:0]
	for d.total > d.max && len(d.idx.slots) > 1 {
		t := d.idx.tail
		rec = appendMark(rec, kindDrop, d.idx.at(t).key)
		d.total -= int64(d.idx.at(t).size)
		d.idx.remove(t)
		d.evictions.Add(1)
	}
	if len(rec) > 0 {
		d.appendLocked(rec)
	}
}

// compact rewrites an overgrown log with only its live records, oldest
// first, into a temp file and renames it over the log. The copy runs
// without the lock, so lookups carry on against the old log; the lock is
// taken again only to copy the touch and drop records appended meanwhile
// and to rename. It runs on the store's writer goroutine, the only caller
// of put, so no put record lands during the copy. A failure leaves the old
// log in place and counts as a write error.
func (d *diskTier) compact() {
	d.mu.Lock()
	if d.f == nil || d.disabled.Load() || d.end <= 2*d.total+compactSlack {
		d.mu.Unlock()
		return
	}
	type extent struct {
		slot int32
		off  int64
		size int32
	}
	live := make([]extent, 0, len(d.idx.slots))
	for i := d.idx.tail; i != none; i = d.idx.at(i).prev {
		s := d.idx.at(i)
		live = append(live, extent{i, s.off, s.size})
	}
	src, mark := d.f, d.end
	d.mu.Unlock()

	tmp, err := os.CreateTemp(d.dir, tmpPrefix+LogName+"-")
	if err != nil {
		d.writeFailed()
		return
	}
	fail := func() {
		tmp.Close()
		os.Remove(tmp.Name())
		d.writeFailed()
	}
	w := bufio.NewWriterSize(tmp, 64<<10)
	w.Write(fileHeader())
	moved := make([]int64, len(live))
	pos := int64(fileHeaderSize)
	var rec []byte
	for k, e := range live {
		if cap(rec) < int(e.size) {
			rec = make([]byte, e.size)
		}
		rec = rec[:e.size]
		if _, err := src.ReadAt(rec, e.off); err != nil {
			fail()
			return
		}
		w.Write(rec)
		moved[k] = pos
		pos += int64(e.size)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f != src { // closed meanwhile
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	tail := make([]byte, d.end-mark)
	if _, err := src.ReadAt(tail, mark); err != nil {
		fail()
		return
	}
	w.Write(tail)
	if err := w.Flush(); err != nil {
		fail()
		return
	}
	if err := os.Rename(tmp.Name(), d.path); err != nil {
		fail()
		return
	}
	for k, e := range live {
		if s := d.idx.at(e.slot); s.size != 0 && s.off == e.off {
			s.off = moved[k]
		}
	}
	src.Close()
	d.f = tmp
	d.end = pos + int64(len(tail))
}

// close closes the log; later lookups miss.
func (d *diskTier) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f != nil {
		d.f.Close()
		d.f = nil
	}
}

// stats reports resident entries and bytes.
func (d *diskTier) stats() (entries int, bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.idx.slots), d.total
}
