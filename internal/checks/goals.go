package checks

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Measured-metric keys. Goals reference these names, the runner writes
// them into Result.Measured, and trend rows persist them — one vocabulary
// end to end so a failure message, a trend row, and a case.json goal all
// name the same quantity.
const (
	// MetricCellsPerSecond is cold-pass sweep throughput (sweep target).
	MetricCellsPerSecond = "cells_per_second"
	// MetricWarmSpeedup is the last pass's throughput over the first's
	// (sweep target with passes >= 2). A memory tier that stops hitting
	// reads about 1, so a floor of a few times catches it.
	MetricWarmSpeedup = "warm_speedup"
	// MetricRequestsPerSecond is completed sweeps per second (serve/soak).
	MetricRequestsPerSecond = "requests_per_second"
	// MetricP99StreamMs is the p99 submit-to-drained latency in
	// milliseconds (serve/soak; for soak it is the async drain latency).
	MetricP99StreamMs = "p99_stream_ms"
	// MetricCacheHitRate is the result-store hit fraction over the case's
	// own lookups (scrape delta, all tiers).
	MetricCacheHitRate = "cache_hit_rate"
	// MetricAllocsPerCell is daemon-side heap allocations per processed
	// cell (scrape delta of hdlsd_go_mallocs_total over hdlsd_cells_total).
	MetricAllocsPerCell = "allocs_per_cell"
	// MetricRSSBytes is the daemon's resident set size after the case.
	MetricRSSBytes = "rss_bytes"
	// MetricErrorLines counts in-band per-cell error lines.
	MetricErrorLines = "error_lines"
	// MetricTransportErrors counts below-HTTP failures (serve/soak).
	MetricTransportErrors = "transport_errors"
)

// GoalSpec is the declarative "goals" object of a case.json. Every field
// is optional but a case must declare at least one. Floors with _min
// suffixes fail when the measurement comes in below them; ceilings with
// _max fail above. Human-unit strings keep the JSON readable: sizes take
// B/KiB/MiB/GiB suffixes, latencies take Go durations ("250ms").
type GoalSpec struct {
	// CellsPerSecondMin is the sweep-throughput floor, declared relative
	// to the machine class's reference calibration and scaled to the host
	// (sweep target only).
	CellsPerSecondMin *float64 `json:"cells_per_second_min,omitempty"`
	// WarmSpeedupMin is the warm-over-cold throughput floor (sweep target
	// with passes >= 2).
	WarmSpeedupMin *float64 `json:"warm_speedup_min,omitempty"`
	// RequestsPerSecondMin is the serving-path throughput floor, scaled
	// like CellsPerSecondMin (serve/soak targets only).
	RequestsPerSecondMin *float64 `json:"requests_per_second_min,omitempty"`
	// P99StreamMax is the p99 stream/drain latency ceiling, a Go duration
	// string (serve/soak targets only).
	P99StreamMax string `json:"p99_stream_max,omitempty"`
	// CacheHitRateMin is the result-store hit-rate floor over the case's
	// own lookups (0..1).
	CacheHitRateMin *float64 `json:"cache_hit_rate_min,omitempty"`
	// AllocsPerCellMax is the daemon-side allocations-per-cell ceiling.
	AllocsPerCellMax *float64 `json:"allocs_per_cell_max,omitempty"`
	// RSSMax is the daemon resident-set ceiling, a size string ("512MiB").
	RSSMax string `json:"rss_max,omitempty"`
	// ErrorLinesMax is the in-band error-line ceiling (usually 0).
	ErrorLinesMax *int `json:"error_lines_max,omitempty"`
	// TransportErrorsMax is the transport-failure ceiling (serve/soak).
	TransportErrorsMax *int `json:"transport_errors_max,omitempty"`
}

// Goal is one normalized, evaluatable gate.
type Goal struct {
	// Metric is the measured key the goal gates (Metric* constants).
	Metric string
	// Floor: true fails when measured < Limit, false when measured > Limit.
	Floor bool
	// Limit is the declared bound in the metric's canonical unit (bytes,
	// milliseconds, plain count) before any host scaling.
	Limit float64
	// Scaled marks throughput floors that scale with the host's
	// calibration ratio against the machine class reference.
	Scaled bool
	// Display is the limit as declared in case.json ("2GiB", "250ms",
	// "65"), used in verdict messages.
	Display string
}

// goalTargets names which targets may declare which goals, so a case
// cannot silently gate a quantity its target never measures.
var goalTargets = map[string][]string{
	MetricCellsPerSecond:    {TargetSweep},
	MetricWarmSpeedup:       {TargetSweep},
	MetricRequestsPerSecond: {TargetServe, TargetSoak},
	MetricP99StreamMs:       {TargetServe, TargetSoak},
	MetricTransportErrors:   {TargetServe, TargetSoak},
	MetricCacheHitRate:      {TargetSweep, TargetServe, TargetSoak},
	MetricAllocsPerCell:     {TargetSweep, TargetServe, TargetSoak},
	MetricRSSBytes:          {TargetSweep, TargetServe, TargetSoak},
	MetricErrorLines:        {TargetSweep, TargetServe, TargetSoak},
}

// parseGoals normalizes a GoalSpec into evaluatable goals, validating
// units, ranges, and goal/target compatibility. Errors name the goal
// field so a broken case.json fails with "goal rss_max: ..." instead of a
// generic unmarshal message.
func (g GoalSpec) parseGoals(target string, passes int) ([]Goal, error) {
	var goals []Goal
	add := func(metric string, floor bool, limit float64, scaled bool, display string) error {
		ok := false
		for _, t := range goalTargets[metric] {
			if t == target {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("goal %s requires target %s, case targets %q",
				goalName(metric, floor), strings.Join(goalTargets[metric], " or "), target)
		}
		goals = append(goals, Goal{Metric: metric, Floor: floor, Limit: limit, Scaled: scaled, Display: display})
		return nil
	}
	if g.CellsPerSecondMin != nil {
		if *g.CellsPerSecondMin <= 0 {
			return nil, fmt.Errorf("goal cells_per_second_min must be positive, got %g", *g.CellsPerSecondMin)
		}
		if err := add(MetricCellsPerSecond, true, *g.CellsPerSecondMin, true,
			trimFloat(*g.CellsPerSecondMin)); err != nil {
			return nil, err
		}
	}
	if g.WarmSpeedupMin != nil {
		if *g.WarmSpeedupMin <= 0 {
			return nil, fmt.Errorf("goal warm_speedup_min must be positive, got %g", *g.WarmSpeedupMin)
		}
		if passes < 2 {
			return nil, fmt.Errorf("goal warm_speedup_min needs sweep.passes >= 2, case declares %d", passes)
		}
		if err := add(MetricWarmSpeedup, true, *g.WarmSpeedupMin, false,
			trimFloat(*g.WarmSpeedupMin)); err != nil {
			return nil, err
		}
	}
	if g.RequestsPerSecondMin != nil {
		if *g.RequestsPerSecondMin <= 0 {
			return nil, fmt.Errorf("goal requests_per_second_min must be positive, got %g", *g.RequestsPerSecondMin)
		}
		if err := add(MetricRequestsPerSecond, true, *g.RequestsPerSecondMin, true,
			trimFloat(*g.RequestsPerSecondMin)); err != nil {
			return nil, err
		}
	}
	if g.P99StreamMax != "" {
		d, err := time.ParseDuration(g.P99StreamMax)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("goal p99_stream_max: bad duration %q (want e.g. \"250ms\")", g.P99StreamMax)
		}
		if err := add(MetricP99StreamMs, false, float64(d)/float64(time.Millisecond), false,
			g.P99StreamMax); err != nil {
			return nil, err
		}
	}
	if g.CacheHitRateMin != nil {
		if *g.CacheHitRateMin < 0 || *g.CacheHitRateMin > 1 {
			return nil, fmt.Errorf("goal cache_hit_rate_min must be in [0,1], got %g", *g.CacheHitRateMin)
		}
		if err := add(MetricCacheHitRate, true, *g.CacheHitRateMin, false,
			trimFloat(*g.CacheHitRateMin)); err != nil {
			return nil, err
		}
	}
	if g.AllocsPerCellMax != nil {
		if *g.AllocsPerCellMax <= 0 {
			return nil, fmt.Errorf("goal allocs_per_cell_max must be positive, got %g", *g.AllocsPerCellMax)
		}
		if err := add(MetricAllocsPerCell, false, *g.AllocsPerCellMax, false,
			trimFloat(*g.AllocsPerCellMax)); err != nil {
			return nil, err
		}
	}
	if g.RSSMax != "" {
		bytes, err := parseSize(g.RSSMax)
		if err != nil {
			return nil, fmt.Errorf("goal rss_max: %v", err)
		}
		if err := add(MetricRSSBytes, false, float64(bytes), false, g.RSSMax); err != nil {
			return nil, err
		}
	}
	if g.ErrorLinesMax != nil {
		if *g.ErrorLinesMax < 0 {
			return nil, fmt.Errorf("goal error_lines_max must be >= 0, got %d", *g.ErrorLinesMax)
		}
		if err := add(MetricErrorLines, false, float64(*g.ErrorLinesMax), false,
			strconv.Itoa(*g.ErrorLinesMax)); err != nil {
			return nil, err
		}
	}
	if g.TransportErrorsMax != nil {
		if *g.TransportErrorsMax < 0 {
			return nil, fmt.Errorf("goal transport_errors_max must be >= 0, got %d", *g.TransportErrorsMax)
		}
		if err := add(MetricTransportErrors, false, float64(*g.TransportErrorsMax), false,
			strconv.Itoa(*g.TransportErrorsMax)); err != nil {
			return nil, err
		}
	}
	if len(goals) == 0 {
		return nil, fmt.Errorf("case declares no goals")
	}
	return goals, nil
}

// goalName reconstructs the case.json field name for error messages.
func goalName(metric string, floor bool) string {
	suffix := "_max"
	if floor {
		suffix = "_min"
	}
	switch metric {
	case MetricP99StreamMs:
		return "p99_stream_max"
	case MetricRSSBytes:
		return "rss_max"
	}
	return metric + suffix
}

// parseSize parses a human byte size: a plain integer (bytes) or an
// integer/decimal with a B, KiB, MiB or GiB suffix. Unknown units are
// named in the error — "512mb" fails loudly instead of gating nothing.
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	num := s
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10}, {"B", 1}} {
		if strings.HasSuffix(s, u.suffix) {
			mult = u.mult
			num = strings.TrimSpace(strings.TrimSuffix(s, u.suffix))
			break
		}
	}
	if num == s && strings.TrimRight(s, "0123456789.") != "" {
		return 0, fmt.Errorf("bad size %q: unknown unit %q (want B, KiB, MiB or GiB)",
			s, strings.TrimLeft(s, "0123456789. "))
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad size %q (want e.g. \"512MiB\")", s)
	}
	return int64(v * float64(mult)), nil
}

// trimFloat formats a declared numeric limit compactly for messages.
func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Failure is one goal the measurement violated.
type Failure struct {
	// Metric is the measured key that failed.
	Metric string
	// Measured is the observed value in the metric's canonical unit.
	Measured float64
	// Limit is the effective bound after host scaling.
	Limit float64
	// Floor reports the direction: true means measured < Limit failed.
	Floor bool
	// Display is the limit as declared in case.json, for the message.
	Display string
	// ScaleNote is non-empty when the limit was calibration-scaled,
	// e.g. "goal 65 × calib 0.91".
	ScaleNote string
}

// String renders the failure the way CI surfaces it:
// "cells_per_second 61.2 < goal 65 (goal 65 × calib 0.94)".
func (f Failure) String() string {
	op := ">"
	if f.Floor {
		op = "<"
	}
	msg := fmt.Sprintf("%s %s %s goal %s", f.Metric, trimFloat(round3(f.Measured)), op, f.Display)
	if f.ScaleNote != "" {
		msg += " (" + f.ScaleNote + ")"
	}
	return msg
}

// round3 keeps verdict messages readable without hiding regressions.
func round3(v float64) float64 {
	if v == 0 {
		return 0
	}
	scale := 1.0
	for abs := v; abs < 100 && abs > -100 && scale < 1e9; abs *= 10 {
		scale *= 10
	}
	return float64(int64(v*scale+0.5)) / scale
}

// evalGoals applies the goals to a measured map. scale is the host's
// calibration ratio against the machine-class reference (1 when equal);
// throughput floors multiply by it so a slower host gets a
// proportionally lower bar. Metrics the case never measured — RSS on a
// platform without procfs reports 0 and is treated as unmeasured — skip
// their goal and record a note instead of passing or failing blind.
func evalGoals(goals []Goal, measured map[string]float64, scale float64) (fails []Failure, notes []string) {
	for _, g := range goals {
		v, ok := measured[g.Metric]
		if !ok || (g.Metric == MetricRSSBytes && v == 0) {
			notes = append(notes, fmt.Sprintf("goal %s skipped: %s not measured",
				goalName(g.Metric, g.Floor), g.Metric))
			continue
		}
		limit := g.Limit
		scaleNote := ""
		if g.Scaled && scale > 0 && scale != 1 {
			limit *= scale
			scaleNote = fmt.Sprintf("goal %s × calib %s", g.Display, trimFloat(round3(scale)))
		}
		if (g.Floor && v < limit) || (!g.Floor && v > limit) {
			fails = append(fails, Failure{
				Metric: g.Metric, Measured: v, Limit: limit,
				Floor: g.Floor, Display: g.Display, ScaleNote: scaleNote,
			})
		}
	}
	return fails, notes
}
