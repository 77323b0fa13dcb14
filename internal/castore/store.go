// Package castore implements hdlsd's tiered content-addressed result
// store. Deterministic simulation makes every cell result a pure function
// of its canonical config hash (hdls.Config.Hash), so the hash is a
// complete address for the frozen result bytes and any tier may serve them
// interchangeably:
//
//	tier 0  in-memory LRU        — hot set, zero-copy replay
//	tier 1  append-only disk log — survives restarts; a hit is one pread,
//	                               a persisted miss one append; checksummed,
//	                               so corruption and a torn tail are misses
//	tier 2  peer fetch (hook)    — a fleet worker asks the cell's ring
//	                               successors before simulating
//
// On top of the tiers, Do collapses concurrent misses of one hash with a
// singleflight: N simultaneous requests run the compute exactly once and
// every caller receives the identical frozen byte slice. The invariant
// throughout is byte identity — a hit at any tier replays the exact bytes
// the original computation produced (DESIGN.md §12).
package castore

import (
	"context"
	"sync"
	"sync/atomic"
)

// PeerFetch resolves a canonical config hash from fleet peers, returning
// the frozen result bytes if some peer holds them. Implementations must be
// safe for concurrent use and should bound their own probe time; the store
// calls the hook only under a singleflight, so one miss probes once no
// matter how many callers collapsed onto it.
type PeerFetch func(ctx context.Context, hash string) ([]byte, bool)

// Options configures a Store.
type Options struct {
	// MemEntries bounds the in-memory LRU tier (default 4096 entries).
	MemEntries int
	// Dir enables the disk tier at this directory; empty disables it.
	Dir string
	// DiskMaxBytes caps the disk tier's live entry bytes, LRU-evicted
	// (default 256 MiB; ignored without Dir). The log stays under twice
	// that plus 4 MiB.
	DiskMaxBytes int64
	// Peers, when non-nil, is probed on a local miss before computing.
	Peers PeerFetch
}

func (o Options) withDefaults() Options {
	if o.MemEntries <= 0 {
		o.MemEntries = 4096
	}
	if o.DiskMaxBytes <= 0 {
		o.DiskMaxBytes = 256 << 20
	}
	return o
}

// Tier identifies which layer of the store satisfied a lookup.
type Tier int

// The store's tiers, in probe order.
const (
	TierNone Tier = iota
	TierMem
	TierDisk
	TierPeer
)

// Outcome describes how Do resolved a request — which tier hit, that the
// caller collapsed onto another caller's in-flight computation, or that
// this caller ran the compute itself.
type Outcome int

// Do outcomes. Computed means this call ran the engine; Collapsed means it
// waited on a concurrent identical call and received the same bytes.
const (
	Computed Outcome = iota
	Collapsed
	HitMem
	HitDisk
	HitPeer
)

// String returns the outcome's X-Cache wire label.
func (o Outcome) String() string {
	switch o {
	case Collapsed:
		return "collapsed"
	case HitMem:
		return "hit"
	case HitDisk:
		return "hit-disk"
	case HitPeer:
		return "hit-peer"
	}
	return "miss"
}

// flight is one in-progress computation all concurrent callers of a hash
// share. body/err are written once, before done closes.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// diskWrite is one queued persistence request.
type diskWrite struct {
	hash string
	body []byte
}

// Store is the tiered content-addressed result store. Create with Open,
// resolve cells with Do (singleflight) or LookupLocal (tiers only), and
// Close on shutdown to flush pending disk writes.
type Store struct {
	mem   *Cache
	disk  *diskTier // nil when the disk tier is disabled
	peers PeerFetch

	flightMu sync.Mutex
	flights  map[string]*flight

	// Disk persistence is asynchronous: the simulation path enqueues and
	// moves on, a single writer goroutine appends to the log (and compacts
	// it), and Close drains the queue — that is the "drain flushes pending
	// disk writes" guarantee. A full queue drops the write (counted): losing
	// warmth is acceptable, stalling the engine worker pool is not.
	qmu        sync.Mutex
	writeQ     chan diskWrite
	qClosed    bool
	writerDone chan struct{}
	closeOnce  sync.Once

	memHits    atomic.Int64
	diskHits   atomic.Int64
	peerHits   atomic.Int64
	misses     atomic.Int64
	collapsed  atomic.Int64
	pending    atomic.Int64
	writeDrops atomic.Int64
}

// Open builds a Store, replaying the log under Options.Dir to warm the
// disk index when the disk tier is enabled.
func Open(opt Options) (*Store, error) {
	o := opt.withDefaults()
	s := &Store{
		mem:        NewCache(o.MemEntries),
		peers:      o.Peers,
		flights:    make(map[string]*flight),
		writeQ:     make(chan diskWrite, 1024),
		writerDone: make(chan struct{}),
	}
	if o.Dir != "" {
		d, err := openDiskTier(o.Dir, o.DiskMaxBytes)
		if err != nil {
			return nil, err
		}
		s.disk = d
	}
	go s.writer()
	return s, nil
}

// writer persists queued results, and compacts the log when the disk tier
// asks, until Close drains and closes the queue.
func (s *Store) writer() {
	defer close(s.writerDone)
	var kick <-chan struct{}
	if s.disk != nil {
		kick = s.disk.kick
	}
	for {
		select {
		case w, ok := <-s.writeQ:
			if !ok {
				return
			}
			if s.disk != nil {
				s.disk.put(w.hash, w.body)
			}
			s.pending.Add(-1)
		case <-kick:
			s.disk.compact()
		}
	}
}

// Close flushes every pending disk write, stops the writer and closes the
// disk log. Idempotent; Do/LookupLocal calls racing Close lose only
// persistence and disk hits, never results.
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		s.qmu.Lock()
		s.qClosed = true
		close(s.writeQ)
		s.qmu.Unlock()
	})
	<-s.writerDone
	if s.disk != nil {
		s.disk.close()
	}
}

// put inserts the frozen bytes into the memory tier and queues the disk
// write.
func (s *Store) put(hash string, body []byte) {
	s.mem.Put(hash, body)
	if s.disk == nil {
		return
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.qClosed {
		s.writeDrops.Add(1)
		return
	}
	select {
	case s.writeQ <- diskWrite{hash: hash, body: body}:
		s.pending.Add(1)
	default:
		s.writeDrops.Add(1)
	}
}

// LookupLocal resolves hash from the local tiers only — memory, then disk
// (promoting a disk hit into memory). It never probes peers and never
// computes, which is what makes it safe to serve fleet peer lookups
// (GET /v1/cache/{hash}) without probe cascades. The returned slice is
// shared on a memory hit: callers must not modify it.
func (s *Store) LookupLocal(hash string) ([]byte, Tier, bool) {
	if body, ok := s.mem.Get(hash); ok {
		s.memHits.Add(1)
		return body, TierMem, true
	}
	if s.disk != nil {
		if body, ok := s.disk.get(hash); ok {
			s.diskHits.Add(1)
			s.mem.Put(hash, body)
			return body, TierDisk, true
		}
	}
	s.misses.Add(1)
	return nil, TierNone, false
}

// Do resolves hash through every tier, collapsing concurrent identical
// requests onto one computation: the first caller to miss all tiers
// becomes the leader, probes peers, runs compute, and publishes the frozen
// bytes; every caller that arrived meanwhile blocks on the same flight and
// receives the identical slice. compute runs at most once per flight, so N
// concurrent requests for one hash cost one engine execution.
//
// compute receives the leader's ctx. A leader whose compute fails (a
// canceled job, an internal engine error) publishes the error without
// caching it; waiters whose own ctx is still live then retry the tiers —
// one of them becomes the next leader — so a canceled client never poisons
// the result for the clients still waiting.
func (s *Store) Do(ctx context.Context, hash string, compute func(ctx context.Context) ([]byte, error)) ([]byte, Outcome, error) {
	for {
		if body, ok := s.mem.Get(hash); ok {
			s.memHits.Add(1)
			return body, HitMem, nil
		}
		if s.disk != nil {
			if body, ok := s.disk.get(hash); ok {
				s.diskHits.Add(1)
				s.mem.Put(hash, body)
				return body, HitDisk, nil
			}
		}
		s.flightMu.Lock()
		if f, ok := s.flights[hash]; ok {
			s.flightMu.Unlock()
			s.collapsed.Add(1)
			select {
			case <-f.done:
				if f.err == nil {
					return f.body, Collapsed, nil
				}
				if err := ctx.Err(); err != nil {
					return nil, Collapsed, err
				}
				continue // leader failed but we are live: retry as leader
			case <-ctx.Done():
				return nil, Collapsed, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		s.flights[hash] = f
		s.flightMu.Unlock()

		body, outcome, err := s.fill(ctx, hash, compute)
		if err == nil {
			f.body = body
			s.put(hash, body)
		}
		f.err = err
		s.flightMu.Lock()
		delete(s.flights, hash)
		s.flightMu.Unlock()
		close(f.done)
		return body, outcome, err
	}
}

// fill is the leader's path: peers first (a ring successor may already
// hold the bytes — fetching them preserves byte identity because results
// are pure functions of the hash), then the real computation.
func (s *Store) fill(ctx context.Context, hash string, compute func(ctx context.Context) ([]byte, error)) ([]byte, Outcome, error) {
	if s.peers != nil {
		if body, ok := s.peers(ctx, hash); ok {
			s.peerHits.Add(1)
			return body, HitPeer, nil
		}
	}
	s.misses.Add(1)
	body, err := compute(ctx)
	if err != nil {
		return nil, Computed, err
	}
	return body, Computed, nil
}

// Stats is the store's counter snapshot.
type Stats struct {
	MemHits   int64 // lookups served by the memory tier
	DiskHits  int64 // lookups served by the disk tier
	PeerHits  int64 // misses filled from a fleet peer
	Misses    int64 // lookups no tier could serve
	Collapsed int64 // callers that joined another caller's flight

	MemEntries  int   // memory-tier resident entries
	DiskEntries int   // disk-tier resident entries
	DiskBytes   int64 // disk-tier resident bytes

	DiskEvictions   int64 // disk entries removed by the byte cap
	DiskCorruptions int64 // disk entries rejected by checksum/framing
	DiskWriteErrors int64 // disk writes that failed (I/O)
	DiskWriteDrops  int64 // disk writes dropped (full queue, or tier disabled)
	PendingWrites   int64 // disk writes queued but not yet persisted
	DiskDisabled    bool  // disk writes shut off after consecutive failures
}

// Hits returns the aggregate across tiers — the legacy single-cache
// hit counter.
func (st Stats) Hits() int64 { return st.MemHits + st.DiskHits + st.PeerHits }

// Stats reports the store's lifetime counters and tier occupancy.
func (s *Store) Stats() Stats {
	st := Stats{
		MemHits:        s.memHits.Load(),
		DiskHits:       s.diskHits.Load(),
		PeerHits:       s.peerHits.Load(),
		Misses:         s.misses.Load(),
		Collapsed:      s.collapsed.Load(),
		PendingWrites:  s.pending.Load(),
		DiskWriteDrops: s.writeDrops.Load(),
	}
	_, _, st.MemEntries = s.mem.Stats()
	if s.disk != nil {
		st.DiskEntries, st.DiskBytes = s.disk.stats()
		st.DiskEvictions = s.disk.evictions.Load()
		st.DiskCorruptions = s.disk.corruptions.Load()
		st.DiskWriteErrors = s.disk.writeErrors.Load()
		st.DiskWriteDrops += s.disk.disabledDrops.Load()
		st.DiskDisabled = s.disk.disabled.Load()
	}
	return st
}
