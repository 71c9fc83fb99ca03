# Tier-1 verification plus the race/vet gates, each one command.
#
#   make verify   build + test (the tier-1 gate)
#   make race     full test suite under the race detector
#   make vet      static checks
#   make faults   fault-injection + chaos suite under the race detector
#   make chaos    multi-replica fleet chaos drills under the race detector
#   make multitenant  multi-model fleet chaos drill: 2 registry-mode rockd
#                     replicas × 3 models (one attribute-weighted) behind
#                     rockgate, concurrent per-model publishes + LRU
#                     evictions + a replica kill, under the race detector
#   make trainfaults  trainer crash/resume drills (journal crash sweep,
#                     SIGKILL-and-resume, reload retries) under -race
#   make check    all of the above
#   make bench    benchmark harness (short mode)
#   make benchjoin  brute vs indexed neighbor-join sweep + Table 3 join (full size)
#   make benchtrain  out-of-core trainer memory-budget sweep (EXPERIMENTS.md)
#   make benchassign  assign hot path: scan vs compiled × codec sweep + 3x guard
#   make stream-soak  online-clustering soak: rockstream feeding a drifting
#                     stream into a 2-replica rockd + rockgate fleet under
#                     -race, plus the stream-vs-batch ARI equivalence gate

GO ?= go

.PHONY: verify race vet faults chaos multitenant trainfaults check bench benchjoin benchtrain benchassign fuzz stream-soak

verify:
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The robustness suite: torn-write/power-cut sweeps, CRC corruption,
# directory rollback, reload hammers, shedding, panic recovery, and the
# end-to-end chaos test. All of it must hold under the race detector.
faults:
	$(GO) test -race ./internal/store -run 'Fault|Atomic|Crash|Durab|Short'
	$(GO) test -race ./internal/model -run 'Crash|CRC|Corrupt|Legacy|Future|Dir|Rollback|Retention'
	$(GO) test -race ./internal/serve -run 'HotSwap|Cancellation|Close|NilAssigner|CacheBatch'
	$(GO) test -race ./internal/daemon -run 'Chaos|Readyz|Rollback|Shed|Panic|Reload'

# Fleet-level chaos: a single replica's crash/reload drills, then the
# gateway drills — 3 replicas under client load with a kill + restart in
# the middle of a coordinated rolling reload. Zero failed assignments,
# zero wrong answers, no mixed model generations once the reload lands.
chaos:
	$(GO) test -race ./internal/daemon -run 'Chaos'
	$(GO) test -race ./internal/gate -run 'Chaos|Smoke'

# Multi-tenant chaos: 2 registry-mode replicas serving 3 named models (one
# with attribute-weighted similarity) behind the gateway, MaxModels=2
# forcing LRU eviction churn, two tenants rolling new generations
# concurrently plus a replica kill + restart — zero failed assignments,
# zero wrong/stale answers, no cross-model generation mixing. Plus the
# registry's own concurrency suite (load stampede, eviction vs in-flight
# assigns, per-model reload isolation) and the daemon registry-mode tests.
multitenant:
	$(GO) test -race ./internal/registry
	$(GO) test -race ./internal/daemon -run 'Registry'
	$(GO) test -race ./internal/gate -run 'Multitenant|Tenant|PerModel' -count=2

# Trainer crash-safety: the journal power-cut sweep (both rename-journal
# orderings), cancel-at-every-checkpoint and SIGKILL-at-checkpoint resume
# drills (resumed model must be ARI-identical with no re-clustering),
# quarantine of corrupt shards/summaries, shard-scanner corruption sweeps,
# and the reload retry/backoff policy. ROCKTRAIN_E2E_DIVISOR sizes the
# drill corpus (lower = bigger).
trainfaults:
	$(GO) test -race ./internal/train -run 'Journal|Resume|Kill|Watchdog|PreCancelled|Shard|PostReload|RetryAfter|RunPublish'

# Online-clustering soak: the rockstream -> model.Dir -> fleet loop with a
# drifting generator (>= 2 generations, drift-score spike + recovery, zero
# wrong/stale answers), the incremental-index equivalence property, and the
# stream-vs-batch ARI gate — all under the race detector.
stream-soak:
	$(GO) test -race ./internal/stream -run 'TestStreamSoak|TestStreamMatchesBatchARI' -v
	$(GO) test -race ./internal/simjoin -run 'TestIncIndex'

check: verify race vet faults chaos multitenant trainfaults stream-soak

bench:
	$(GO) test -short -bench=. -benchmem ./...

# The set-similarity join (Join's chosen engine) against the brute-force
# O(n²) neighbor sweep, across sample size, theta and basket size, plus the
# Table 3 records (EXPERIMENTS.md table).
benchjoin:
	$(GO) test -run '^$$' -bench 'Neighbors(Brute|Indexed|Mushroom)' -benchmem -timeout 30m .

# The sharded trainer over the basket workload at 115k / 1.15M / 11.5M
# transactions under a fixed per-shard memory budget (EXPERIMENTS.md
# "training at scale" table). MULTS and BUDGET_MB override the sweep.
benchtrain:
	scripts/benchtrain.sh

# The assign hot path (EXPERIMENTS.md "serving hot path" table): the
# compiled posting-list assigner vs the scan reference across model shapes
# (sets × labeled size), the JSON vs binary codec (± answer cache) at the
# daemon handler, and the coarse regression guard — compiled must beat scan
# by at least 3× on the reference model or the target fails.
benchassign:
	$(GO) test -run '^$$' -bench 'Assign(Scan|Compiled)' -benchmem ./internal/model
	$(GO) test -run '^$$' -bench 'HandleAssign' -benchmem ./internal/daemon
	ROCK_ASSIGN_GUARD=1 $(GO) test ./internal/model -run TestCompiledSpeedupGuard -v

# Short fuzz passes over every decoder (text, binary, categorical, model
# snapshot, assign wire format); lengthen with FUZZTIME=5m etc.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/store -fuzz=FuzzTextScanner -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/store -fuzz=FuzzBinaryScanner -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/store -fuzz=FuzzCategorical -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/model -fuzz=FuzzRead -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire -fuzz=FuzzDecodeRequest -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire -fuzz=FuzzDecodeResponse -fuzztime=$(FUZZTIME)
