GO ?= go

.PHONY: test bench bench-stress sweep vet fmt doclint serve smoke fleet-smoke castore-smoke soak check checks-smoke

test:
	$(GO) build ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# doclint fails when any exported identifier in the public packages lacks
# a doc comment (the bar CI's doc-lint step enforces).
doclint:
	$(GO) run ./cmd/doclint ./dls ./parallel ./hdls

# serve runs the sweep-as-a-service daemon on :8080 (see cmd/hdlsd and
# DESIGN.md §9); smoke drives the end-to-end HTTP acceptance scenario
# against a freshly built daemon and tears it down.
serve:
	$(GO) run ./cmd/hdlsd -addr :8080

smoke:
	scripts/hdlsd_smoke.sh

# fleet-smoke drives the fault-tolerance acceptance scenario (DESIGN.md
# §10): a coordinator sharding a 64-cell sweep over three workers with one
# worker SIGKILLed mid-stream, asserting the merged NDJSON is
# byte-identical to a single daemon's output.
fleet-smoke:
	scripts/fleet_smoke.sh

# castore-smoke drives the result-store acceptance scenario (DESIGN.md
# §12): a daemon with a disk tier is SIGTERMed and restarted on the same
# directory (warm replay must be byte-identical, served as hit-disk), then
# a two-worker fleet exercises peer-fill (hit-peer without recompute).
castore-smoke:
	scripts/castore_smoke.sh

# soak drives the durability acceptance scenario (DESIGN.md §13): a
# 3-worker journaled fleet under concurrent loadgen traffic with a worker
# and the coordinator SIGKILLed and restarted mid-run — zero lost jobs,
# byte-identical post-crash merge, 429 + Retry-After under overload,
# in-band deadline expiry.
soak:
	scripts/fleet_soak.sh

# bench runs the end-to-end benchmark (BENCHMARK.json, bench/README.md):
# four workloads against fresh hdlsd daemons, five metrics each. For an
# A/B verdict run it in both trees and compare the two outputs with
# `bash bench/run.sh compare`.
bench:
	bash bench/run.sh

# bench-stress times the opt-in 64-node cells (1024 ranks each) — the
# large-P extreme kept outside the benchmark's workloads because a single
# cell takes seconds. Useful when touching the collectives, the
# arena pool, or the event queue's spill-to-heap path.
bench-stress:
	$(GO) run ./cmd/hdlsweep -figure 5 -scale 64 -nodes 64 -q
	$(GO) run ./cmd/hdlsim -app mandelbrot -inter GSS -intra SS -nodes 64 -scale 64

# check runs the machine-class perf gates (DESIGN.md §14): every case of
# the selected class executed through a fresh live hdlsd subprocess, one
# trend row appended per case to checks/trend/<class>.ndjson, and a named
# verdict per check — CI fails with
#   check quick/fig4-grid: FAIL: cells_per_second 61.2 < goal 100
# instead of a raw regression percentage. CLASS=nightly runs the full
# matrix the nightly workflow uses.
CLASS ?= quick
check:
	$(GO) build -o bin/hdlsd ./cmd/hdlsd
	$(GO) build -o bin/hdlscheck ./cmd/hdlscheck
	bin/hdlscheck -hdlsd bin/hdlsd -class $(CLASS)

# checks-smoke asserts the gates fail the right way: a deliberately
# lowered goal and a SIGKILLed check daemon must both fail the named
# check (exit 1), never crash the harness.
checks-smoke:
	scripts/checks_smoke.sh

# sweep regenerates the paper evaluation at the quick default scale (1/8
# workloads); set SCALE=1 for the full-size numbers (minutes).
SCALE ?= 8
sweep:
	$(GO) run ./cmd/hdlsweep -scale $(SCALE) -out results
