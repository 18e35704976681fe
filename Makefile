GO ?= go

.PHONY: all build test race vet profile clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# profile captures CPU and heap profiles of the Table 1 sweep — the
# communication-heavy workload that exercises the scheduler and radio hot
# paths. Inspect with: go tool pprof cpu.pprof
profile: build
	$(GO) run ./cmd/etsim -exp table1 -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof (go tool pprof <file>)"

# clean removes generated profiles.
clean:
	rm -f cpu.pprof mem.pprof
