# Local mirror of the CI pipeline (.github/workflows/ci.yml).
#
#   make verify       build + vet + gofmt + test — the tier-1 gate
#   make race         race-enabled test run
#   make bench        one iteration of every benchmark (smoke)
#   make bench-report solver benchmarks vs baseline -> BENCH_10.json
#   make serve-smoke  end-to-end sramd daemon smoke test
#   make diag-smoke   end-to-end diagnose CLI smoke test
#   make diag-index-smoke  fleet-scale dictionary: index byte-identity, >=20x, streaming
#   make engine-smoke engine matrix: spice vs tiered must emit identical bytes
#   make cluster-smoke  3-node cluster batch must be byte-identical to one node
#   make loadgen-smoke  short load-generator run; fails on any dropped request
#   make yield-smoke, make faultmap-smoke, make noise-smoke
#                     scripts/estimate-smoke.sh KIND: worker counts, cluster
#                     shards and daemon job must be byte-identical; /metrics
#                     counters checked; plus faultmap's corpus-dump regen and
#                     noise's static-vs-noise divergence gate

GO ?= go

.PHONY: verify build vet fmt test race bench bench-report serve-smoke diag-smoke diag-index-smoke engine-smoke cluster-smoke loadgen-smoke yield-smoke faultmap-smoke noise-smoke

verify: build vet fmt test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:"; \
		echo "$$out"; \
		exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

bench-report:
	sh scripts/bench-report.sh

serve-smoke:
	sh scripts/serve-smoke.sh

diag-smoke:
	sh scripts/diag-smoke.sh

diag-index-smoke:
	sh scripts/diag-index-smoke.sh

engine-smoke:
	sh scripts/engine-smoke.sh

cluster-smoke:
	sh scripts/cluster-smoke.sh

loadgen-smoke:
	sh scripts/loadgen-smoke.sh

yield-smoke:
	sh scripts/estimate-smoke.sh yield

faultmap-smoke:
	sh scripts/estimate-smoke.sh faultmap

noise-smoke:
	sh scripts/estimate-smoke.sh noise
