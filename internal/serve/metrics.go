package serve

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// handleMetrics exposes the daemon's operational counters in the
// Prometheus text format: throughput (cells/sec over the process
// lifetime), tiered-store effectiveness (per-tier hits, singleflight
// collapses, disk-tier health), queue pressure, and the simulation arena
// pool's reuse behavior under concurrent traffic (DESIGN.md §9, §12).
//
// The pre-tiered daemon exposed a single hdlsd_cache_hit_rate gauge; that
// conflates tiers now that disk and peer hits exist (a cold-restart disk
// hit and a hot mem hit have very different costs), so the rate is split
// per tier — each gauge is that tier's share of all lookups — and the
// legacy names (hdlsd_cache_hits_total, hdlsd_cache_hit_rate) remain as
// the cross-tier aggregates.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.manager.Stats()
	cs := s.store.Stats()
	reuses, builds, puts := core.ArenaStats()
	uptime := time.Since(s.started).Seconds()
	cellsPerSec := 0.0
	if uptime > 0 {
		cellsPerSec = float64(st.Cells) / uptime
	}
	lookups := cs.Hits() + cs.Misses
	rate := func(hits int64) float64 {
		if lookups == 0 {
			return 0
		}
		return float64(hits) / float64(lookups)
	}
	draining := 0
	if s.manager.Draining() {
		draining = 1
	}
	diskDisabled := 0
	if cs.DiskDisabled {
		diskDisabled = 1
	}
	var js journalStats
	if s.journal != nil {
		js = s.journal.stats()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	type metric struct {
		name, help, typ string
		value           float64
	}
	for _, m := range []metric{
		{"hdlsd_uptime_seconds", "Seconds since the daemon started.", "gauge", uptime},
		{"hdlsd_jobs_total", "Sweep jobs accepted.", "counter", float64(st.Jobs)},
		{"hdlsd_jobs_active", "Jobs with incomplete cells.", "gauge", float64(st.ActiveJobs)},
		{"hdlsd_jobs_retained", "Jobs currently replayable under /v1/jobs.", "gauge", float64(st.JobsRetained)},
		{"hdlsd_jobs_evicted_total", "Completed jobs dropped by TTL/count retention.", "counter", float64(st.JobsEvicted)},
		{"hdlsd_jobs_shed_total", "Submissions rejected by admission control (429s).", "counter", float64(st.JobsShed)},
		{"hdlsd_jobs_recovered_total", "Jobs replayed from the journal after a restart.", "counter", float64(st.JobsRecovered)},
		{"hdlsd_jobs_recovery_failures_total", "Journal records that could not be replayed.", "counter", float64(st.RecoveryFails)},
		{"hdlsd_journal_records_total", "Job-journal acceptance records written.", "counter", float64(js.Records)},
		{"hdlsd_journal_write_errors_total", "Job-journal records that failed to persist.", "counter", float64(js.WriteErrors)},
		{"hdlsd_journal_finish_errors_total", "Job-journal terminal appends that failed.", "counter", float64(js.FinishErrors)},
		{"hdlsd_journal_corrupt_total", "Unparseable journals removed at startup.", "counter", float64(js.Corrupt)},
		{"hdlsd_cells_total", "Simulation cells processed (cache hits included).", "counter", float64(st.Cells)},
		{"hdlsd_cells_cached_total", "Cells served from a result-store tier.", "counter", float64(st.CellsCached)},
		{"hdlsd_cells_collapsed_total", "Cells that joined a concurrent identical in-flight cell.", "counter", float64(st.CellsCollapsed)},
		{"hdlsd_cells_canceled_total", "Cells skipped or aborted after client disconnect.", "counter", float64(st.CellsCanceled)},
		{"hdlsd_cells_deadline_expired_total", "Cells refused or aborted past their end-to-end deadline.", "counter", float64(st.CellsExpired)},
		{"hdlsd_cell_errors_total", "Cells that failed after validation.", "counter", float64(st.CellErrors)},
		{"hdlsd_cells_per_second", "Lifetime cell throughput.", "gauge", cellsPerSec},
		{"hdlsd_queue_depth", "Cells queued but not yet started.", "gauge", float64(st.QueueDepth)},
		{"hdlsd_cache_hits_total", "Result-store hits across all tiers.", "counter", float64(cs.Hits())},
		{"hdlsd_cache_mem_hits_total", "Result-store memory-tier hits.", "counter", float64(cs.MemHits)},
		{"hdlsd_cache_disk_hits_total", "Result-store disk-tier hits.", "counter", float64(cs.DiskHits)},
		{"hdlsd_cache_peer_hits_total", "Misses filled from a fleet peer's store.", "counter", float64(cs.PeerHits)},
		{"hdlsd_cache_misses_total", "Result-store lookups no tier could serve.", "counter", float64(cs.Misses)},
		{"hdlsd_cache_inflight_collapsed_total", "Lookups collapsed onto an in-flight identical computation.", "counter", float64(cs.Collapsed)},
		{"hdlsd_cache_entries", "Memory-tier resident entries.", "gauge", float64(cs.MemEntries)},
		{"hdlsd_cache_disk_entries", "Disk-tier resident entries.", "gauge", float64(cs.DiskEntries)},
		{"hdlsd_cache_disk_bytes", "Disk-tier resident bytes.", "gauge", float64(cs.DiskBytes)},
		{"hdlsd_cache_disk_evictions_total", "Disk-tier entries removed by the byte cap.", "counter", float64(cs.DiskEvictions)},
		{"hdlsd_cache_disk_corruptions_total", "Disk-tier entries rejected by checksum/framing and dropped.", "counter", float64(cs.DiskCorruptions)},
		{"hdlsd_cache_disk_write_errors_total", "Disk-tier writes that failed.", "counter", float64(cs.DiskWriteErrors)},
		{"hdlsd_cache_disk_write_drops_total", "Disk-tier writes dropped (full queue, or tier disabled).", "counter", float64(cs.DiskWriteDrops)},
		{"hdlsd_cache_disk_disabled", "1 after consecutive write failures shut the disk tier's writes off.", "gauge", float64(diskDisabled)},
		{"hdlsd_cache_disk_writes_pending", "Disk-tier writes queued but not yet persisted.", "gauge", float64(cs.PendingWrites)},
		{"hdlsd_cache_hit_rate", "Lifetime hit fraction of store lookups, all tiers.", "gauge", rate(cs.Hits())},
		{"hdlsd_cache_mem_hit_rate", "Fraction of store lookups served by the memory tier.", "gauge", rate(cs.MemHits)},
		{"hdlsd_cache_disk_hit_rate", "Fraction of store lookups served by the disk tier.", "gauge", rate(cs.DiskHits)},
		{"hdlsd_cache_peer_hit_rate", "Fraction of store lookups filled from a fleet peer.", "gauge", rate(cs.PeerHits)},
		{"hdlsd_arena_reuses_total", "Cells served by a recycled simulation arena.", "counter", float64(reuses)},
		{"hdlsd_arena_builds_total", "Cells that built a fresh simulation arena.", "counter", float64(builds)},
		{"hdlsd_arena_returns_total", "Arenas returned to the pool after clean runs.", "counter", float64(puts)},
		{"hdlsd_process_rss_bytes", "Resident set size of the daemon process (0 where unsupported).", "gauge", float64(processRSSBytes())},
		{"hdlsd_go_mallocs_total", "Cumulative heap objects allocated by the Go runtime.", "counter", float64(ms.Mallocs)},
		{"hdlsd_go_heap_alloc_bytes", "Live heap bytes held by the Go runtime.", "gauge", float64(ms.HeapAlloc)},
		{"hdlsd_draining", "1 while the daemon is draining.", "gauge", float64(draining)},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", m.name, m.help, m.name, m.typ, m.name, m.value)
	}
}

// processRSSBytes reads the process's resident set size from
// /proc/self/status (VmRSS, kibibytes). It returns 0 on platforms without
// procfs — consumers (the checks runner's RSS goal) treat 0 as
// "unavailable" and skip the goal rather than passing or failing on it.
func processRSSBytes() int64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// ParseMetrics parses the Prometheus text exposition this daemon emits
// into a name → value map. It is the scrape half of the machine-class
// perf gates (internal/checks): goal evaluation works on scrape deltas,
// so the parser and the emitter must agree and live side by side. Only
// the subset the daemon produces is handled — unlabeled samples, one per
// line — and # comment lines are skipped; a malformed sample line is an
// error naming the line.
func ParseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("malformed metric line %q", line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metric value in %q: %v", line, err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
