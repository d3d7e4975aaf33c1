GO ?= go
STATICCHECK ?= staticcheck
FUZZTIME ?= 20s

.PHONY: build vet staticcheck test race fuzz docs loc knobs verify bench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools if it is installed; locally it is
# optional (skipped with a notice), but CI installs it and fails on
# findings.
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz runs a short smoke of every fuzz target: the one frame reader
# (arbitrary bytes may error but must never panic or over-allocate, and an
# accepted frame re-encodes to the same bytes), netps's client connection
# reader fed an arbitrary back-to-back frame stream with calls pending
# (FuzzDecodeBatch: every call settles exactly once), and what each
# transport does with a frame that parsed. Go accepts one
# -fuzz target per invocation, so each runs separately for $(FUZZTIME).
# The committed corpora under testdata/fuzz are replayed by plain
# `go test` regardless; this target searches for new inputs.
fuzz:
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netps -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netps -run '^$$' -fuzz '^FuzzDecodeMessage$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netar -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZTIME)

# docs validates the documentation set: vet keeps the package docs
# compiling with the code they describe, checklinks fails on any relative
# markdown link or heading anchor whose target moved or was renamed,
# checkdocs requires a doc comment on every exported symbol of the
# operator-facing packages, of internal/wire (the frame both live
# transports depend on) and of internal/netps (the PS client API), and
# checkmetrics holds ARCHITECTURE.md's Metric schema to exactly the
# netps_* series the code registers, and checkflags holds README's
# `bytesched` flags table to exactly the flags cmd/bytesched registers.
docs: vet
	sh scripts/checklinks.sh
	sh scripts/checkdocs.sh
	sh scripts/checkmetrics.sh
	sh scripts/checkflags.sh

# loc prints non-test Go lines per package and their total outside bench/,
# the size figure ROADMAP.md and CHANGES.md quote.
loc:
	sh scripts/loc.sh

# knobs lists every top-level With… option with its product callers (non-test
# Go, bench/ included) and fails on one that only tests set.
knobs:
	sh scripts/knobs.sh

# verify is the CI gate: everything must build, pass vet + staticcheck,
# pass the full test suite with the race detector on (./... includes the
# live netps/netar transports and the runner's live harness), survive a
# fuzz smoke on every wire decoder, and have intact docs. The race pass is
# where the live transports' buffer reuse is held to its ownership rules:
# internal/netps's TestBufferOwnership (a recycled read, encode or sum
# buffer touched after its owner moved on is a race report) and
# TestBulkPathAllocBudget (the bytes one push+pull iteration may allocate,
# stated so it holds with the detector on); CI refuses a build tag on any
# live-transport test file, which would skip it here. The race pass also
# includes TestParallelMatchesSerial, which holds every non-live
# experiment it runs to internal/experiments/testdata/quick_seed1.json; a PR
# that means to move a table regenerates that snapshot (~3 min, command in
# internal/experiments/determinism_test.go's file comment) and reviews its diff.
verify: build vet staticcheck race fuzz docs

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .
