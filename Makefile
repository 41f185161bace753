# Standard entry points; `make check` is the full gauntlet CI runs.

GO ?= go

.PHONY: build test race vet lint lint-fix-fixtures bench bench-json bench-scale bench-serve bench-feedback serve-smoke check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/lint -jsonfile lint-findings.json ./...

# lint-fix-fixtures regenerates the analyzer golden files after an
# intentional change to fixture code or diagnostic messages.
lint-fix-fixtures:
	$(GO) test ./internal/lint -run 'TestAnalyzerFixtures|TestIgnoreDirectives|TestStaleDirectives$$' -update

bench:
	$(GO) test -bench=. -benchmem

# bench-json runs the suite at the tiny scale and writes BENCH_<date>.json.
bench-json:
	./scripts/bench.sh

# bench-scale runs only the bulk-load scale sweep (flat vs compressed
# load throughput and bytes/triple) and prints the JSON on stdout.
bench-scale:
	$(GO) run ./cmd/benchall -loadscales tiny,small,medium -loadjson -

# bench-serve runs only the HTTP serve throughput sweep (an in-process
# rdfserver driven by the load generator) and prints the JSON on stdout.
bench-serve:
	$(GO) run ./cmd/benchall -scale tiny -servejson -

# bench-feedback runs only the adaptive-cost warm-up sweep (estimation
# error trajectory over repeated workload passes) and prints the JSON
# on stdout; it fails unless the error shrinks at least 2x.
bench-feedback:
	$(GO) run ./cmd/benchall -scale tiny -feedbackjson -

# serve-smoke exercises rdfserver + loadgen end to end on an ephemeral port.
serve-smoke:
	./scripts/serve_smoke.sh

check:
	./scripts/check.sh
