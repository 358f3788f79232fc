# Tier-1 verification: formatting, static checks, build, tests.
.PHONY: check fmt vet build test lint perfbench-check fuzz bench bench-guard profile

check: fmt vet build test lint perfbench-check

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

build:
	go build ./...

test:
	go test ./...

# lint runs simlint, the repo's determinism discipline (see tools/simlint
# and the "Determinism discipline" section of README.md). Zero unsuppressed
# findings is a merge requirement; suppressions must carry a reason
# (//simlint:allow <analyzer> — <why>).
lint:
	go run ./tools/simlint ./...

# perfbench-check formats, vets and tests the repo benchmark (perfbench/).
# It is a nested module, outside the root ./..., so the targets above
# never reach it.
perfbench-check:
	@cd perfbench && out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	cd perfbench && go vet ./... && go test ./...

# fuzz runs each native fuzz target for 10s. The seed corpora also run
# as plain tests under `go test ./...`.
fuzz:
	go test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/wire
	go test -run '^$$' -fuzz '^FuzzDecodeCSR$$' -fuzztime 10s ./internal/model
	go test -run '^$$' -fuzz '^FuzzParseSLO$$' -fuzztime 10s ./internal/obs/monitor

bench: bench-guard
	go test -bench . -benchtime 1x .

# bench-guard measures a fresh perf-trajectory point and gates it against
# the highest-numbered committed BENCH_*.json (tools/benchguard has the
# series table and its bounds). It writes nothing; `go run
# ./tools/benchguard -write` appends the point as the next BENCH_<k>.json.
bench-guard:
	go run ./tools/benchguard

# profile captures CPU and heap profiles of the benchmark named by
# PROFILE_BENCH (default: the million-query replay) and prints the top-10
# flat-cost functions of each, so "where does the replay engine spend its
# time" is one command away. Profiles land in ./profiles/.
PROFILE_BENCH := BenchmarkMillionQueryReplay
profile:
	mkdir -p profiles
	go test -run '^$$' -bench $(PROFILE_BENCH) -benchtime 1x \
		-cpuprofile profiles/cpu.prof -memprofile profiles/mem.prof \
		-o profiles/bench.test .
	go tool pprof -top -nodecount=10 profiles/bench.test profiles/cpu.prof
	go tool pprof -top -nodecount=10 -sample_index=alloc_space profiles/bench.test profiles/mem.prof
