GO ?= go

.PHONY: build test fmt vet lint race bench benchjson verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fails listing every file gofmt would change.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Determinism-contract multichecker (detlint, maporder, errwrap,
# seedplumb) over every package. See DESIGN.md "Determinism contract".
lint:
	$(GO) run ./cmd/lint ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark snapshot: one short-mode pass of every
# benchmark, parsed into BENCH.json (ns/op, B/op, allocs/op per
# benchmark). CI uploads the file as a per-commit artifact.
benchjson:
	$(GO) test -run=^$$ -bench=. -benchmem -benchtime=1x ./... | $(GO) run ./cmd/benchjson > BENCH.json

# The full gate: everything must pass before a change lands.
verify: build fmt vet lint race
