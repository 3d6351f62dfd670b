# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race vet loc trace experiments clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect every unit/integration/fault test; -short skips only the
# experiment-scale runs that exceed the race detector's time budget.
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# Print the ROADMAP's size number (non-test Go lines outside bench/).
loc:
	@scripts/loc.sh

# Record flight-recorder traces for the two canonical scenarios and run
# the offline analyzer over them. Open the .json files in
# https://ui.perfetto.dev; see README §"Tracing a run".
trace:
	$(GO) run ./cmd/fastrak-sim -out results traced fig12
	$(GO) run ./cmd/fastrak-trace -churn results/fastrak-trace.json

# Regenerate every checked-in evaluation output (results/) plus the trace
# artifacts CI uploads.
experiments:
	scripts/experiments.sh

clean:
	$(GO) clean ./...
