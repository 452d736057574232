#!/usr/bin/env bash
# Full local CI gate for the dsv workspace. Runs everything the tier-1
# verify runs, plus formatting, lints, the full workspace test matrix,
# bench/example compilation, the e05 paper-bound gate, bench smoke runs
# with JSON schema gates
# (including the e16 parted-speedup gate, the e17 overlap-speedup gate,
# the e18 fleet keys x throughput gate, the e19 quiet-stream
# delta-shrink gate, and — in
# remote-feature jobs — the e20 remote TCP/UDS parity gate and a
# smoke run of the repository benchmark, benchmark/run.sh), the
# 150-word cap on the top CHANGES.md entry, a Rust line count per crate
# (target/ci/loc.json, all lines and non-test lines) with ratchets on the
# EngineConfig and RemoteConfig field counts and the wire-format count,
# and rustdoc. Fails fast on
# the first broken step, and prints a per-step wall-clock summary at the
# end (also emitted to $GITHUB_STEP_SUMMARY under Actions) so gate-time
# regressions are visible in PRs.
#
# This script is the single source of truth for the gate; the GitHub
# workflow (.github/workflows/ci.yml) just checks out, installs a
# toolchain, and runs it — once per feature-matrix job:
#
#   ./ci.sh                            # default features
#   DSV_FEATURES=remote ./ci.sh        # distributed shards + failover
#
# DSV_STEP_BUDGET_SECS=<n> (default off) fails an otherwise-green run if
# any single step took longer than n seconds — the per-step wall clocks
# are also written to target/ci/ci_times.json for machine consumption.
set -euo pipefail
cd "$(dirname "$0")"

# Cargo feature flags for this run (the workflow matrix sets
# DSV_FEATURES; empty means default features). The dsv facade forwards
# the feature to the member crate that implements it.
# Possibly-empty arrays are expanded with the ${arr[@]+"${arr[@]}"}
# idiom throughout: plain "${arr[@]}" on an empty array trips set -u on
# bash < 4.4 (e.g. the stock macOS /bin/bash 3.2). The %N in the timing
# code is GNU date; BSD date degrades it to whole seconds, gracefully.
FEATURE_FLAGS=()
# dsv-bench mirrors the facade's feature name (forwarding to its
# dsv-engine/<feature> seam), so `-p dsv-bench` commands take
# DSV_FEATURES verbatim — feature resolution stays identical to the
# workspace-wide steps (no mid-gate feature flip, no redundant rebuild,
# and the bench/schema gates actually exercise the matrix job's
# configuration), while feature-gated bench targets (e20's
# required-features = ["remote"]) appear exactly when their seam is on.
BENCH_FEATURE_FLAGS=()
if [ -n "${DSV_FEATURES:-}" ]; then
    FEATURE_FLAGS=(--features "$DSV_FEATURES")
    BENCH_FEATURE_FLAGS=(--features "$DSV_FEATURES")
fi

# ---------------------------------------------------------------------------
# Per-step wall-clock timing. `step` closes the previous step; the EXIT
# trap closes the last one and prints the summary table (markdown to
# $GITHUB_STEP_SUMMARY when set), including on failure so a hung or slow
# step is visible in the log that killed the run.
# ---------------------------------------------------------------------------
STEP_NAMES=()
STEP_SECS=()
CUR_STEP=""
CUR_START=0
SCRIPT_START=$(date +%s.%N)

finish_step() {
    if [ -n "$CUR_STEP" ]; then
        STEP_NAMES+=("$CUR_STEP")
        STEP_SECS+=("$(echo "$(date +%s.%N) $CUR_START" | awk '{printf "%.1f", $1 - $2}')")
        CUR_STEP=""
    fi
}

step() {
    finish_step
    CUR_STEP="$*"
    CUR_START=$(date +%s.%N)
    printf '\n=== %s ===\n' "$*"
}

print_timings() {
    rc=$?
    finish_step
    total=$(echo "$(date +%s.%N) $SCRIPT_START" | awk '{printf "%.1f", $1 - $2}')
    printf '\n=== step timings (features: %s) ===\n' "${DSV_FEATURES:-default}"
    for i in ${STEP_NAMES[@]+"${!STEP_NAMES[@]}"}; do
        printf '%8ss  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
    done
    printf '%8ss  TOTAL%s\n' "$total" "$([ "$rc" -ne 0 ] && echo ' (FAILED)')"
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
        {
            printf '### ci.sh step timings (features: %s)\n\n' "${DSV_FEATURES:-default}"
            printf '| step | seconds |\n|---|---:|\n'
            for i in ${STEP_NAMES[@]+"${!STEP_NAMES[@]}"}; do
                printf '| %s | %s |\n' "${STEP_NAMES[$i]}" "${STEP_SECS[$i]}"
            done
            printf '| **TOTAL%s** | **%s** |\n' "$([ "$rc" -ne 0 ] && echo ' (failed)')" "$total"
        } >> "$GITHUB_STEP_SUMMARY"
    fi
    # Machine-readable mirror of the table (step names are fixed strings
    # with no JSON-special characters). Written even on failure, so a
    # timing regression that kills the run still leaves its evidence.
    mkdir -p target/ci
    {
        printf '{"features": "%s", "failed": %s, "total_secs": %s, "steps": [' \
            "${DSV_FEATURES:-default}" "$([ "$rc" -ne 0 ] && echo true || echo false)" "$total"
        sep=""
        for i in ${STEP_NAMES[@]+"${!STEP_NAMES[@]}"}; do
            printf '%s{"name": "%s", "secs": %s}' "$sep" "${STEP_NAMES[$i]}" "${STEP_SECS[$i]}"
            sep=", "
        done
        printf ']}\n'
    } > target/ci/ci_times.json
    # Optional per-step wall-clock budget: an otherwise-green run fails
    # if any single step exceeded DSV_STEP_BUDGET_SECS (default off), so
    # gate-time regressions break the build instead of creeping.
    if [ "$rc" -eq 0 ] && [ -n "${DSV_STEP_BUDGET_SECS:-}" ]; then
        for i in ${STEP_NAMES[@]+"${!STEP_NAMES[@]}"}; do
            if awk -v s="${STEP_SECS[$i]}" -v b="$DSV_STEP_BUDGET_SECS" \
                'BEGIN { exit !(s > b) }'; then
                printf 'ci.sh: STEP BUDGET EXCEEDED — "%s" took %ss (budget %ss)\n' \
                    "${STEP_NAMES[$i]}" "${STEP_SECS[$i]}" "$DSV_STEP_BUDGET_SECS" >&2
                exit 1
            fi
        done
    fi
}
trap print_timings EXIT

# Resolve a dsv-bench bench binary through cargo itself (stale-proof:
# `ls -t target/.../name-*` picks outdated hashes after renames or
# toolchain bumps; the JSON compiler messages name the fresh artifact).
# The match is anchored to the exact target name — compiler-artifact
# lines only, `"name":"<target>",` with its closing delimiter — so a
# future bench named e.g. `e17_pipeline_ext` can never shadow
# `e17_pipeline` however the message fields are ordered.
# Never fails (so `set -e` can't kill the script before the caller's
# not-found diagnostic): a broken target yields an empty string and the
# compile error is replayed on stderr.
bench_bin() {
    if ! out=$(cargo bench --no-run --message-format=json -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bench "$1" 2>/tmp/bench_bin.err); then
        cat /tmp/bench_bin.err >&2
        return 0
    fi
    printf '%s' "$out" \
        | grep '"reason":"compiler-artifact"' \
        | grep "\"name\":\"$1\"[,}]" \
        | sed -n 's/.*"executable":"\([^"]*\)".*/\1/p' \
        | tail -1 \
        || true
}

step "cargo fmt --check"
cargo fmt --all --check

step "cargo build --release"
cargo build --release ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"}

step "cargo clippy --workspace --all-targets (-D warnings)"
cargo clippy --workspace --all-targets ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"} -- -D warnings

step "cargo test --workspace -q (superset of the tier-1 'cargo test -q')"
cargo test --workspace -q ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"}

step "cargo test --release: codec_robustness + state_bounded + fleet_equivalence + state_roundtrip + delta_checkpoint + fleet_delta + engine_equivalence + engine_checkpoint + pipeline_equivalence + async_ingest + message_ledger_pinned + batch_proptests (+ remote_equivalence and failover_injection with remote) + the dsv-engine unit tests (the restore gauntlet, the O(k) state check, the snapshot seam, delta chains, the windowed executor, fork_join and the run seam, optimized)"
# Both profiles are needed. The restore-then-continue gauntlet's
# `assert!` panics reproduce only when a restored tracker is stepped and
# survive into release; its shift and add overflows panic only in debug
# (the workspace-test step above). state_bounded runs a tenth of its
# sizes in debug and the stated 1e5 / 1e6 / 1e7 updates here. The fleet's
# eviction path (freeze appends to the arena through `snapshot_into`)
# runs at scale only in release, with its `debug_assert`s compiled out,
# so its equivalence matrix and the seam's round-trip suite run here too.
# Fleet delta chains (delta_checkpoint) run here as well: a fleet
# checkpoint is flat per-shard tables copied as whole slices and its
# delta pins the parent with a word-wide fold, both optimized code; and
# fleet_delta, whose dirty walk pins the parent as a task the fleet's
# workers claim beside the shard walks, so the pin and the walk overlap.
# All three in-memory modes (run, run_parted, run_pipelined) share one
# executor whose workers run whole windows of rounds without meeting, and
# their threads only interleave at scale once optimized, so the engine's
# worker-count matrices run here as well, with engine_checkpoint (routed
# run and resume at several worker counts) and pipeline_equivalence (the
# pipelined workers, one per shard, drain their feeds on that executor,
# and a laggy feed must hold back no other shard), and async_ingest:
# async pushes land through the same round-cutting path as the blocking
# ones, and only optimized code takes rounds fast enough to race them.
# The run seam (`update_run` → `absorb_quiet`) is the one way every mode
# and the fleet feed a tracker, so its pinned ledgers
# (message_ledger_pinned) and chunking proptests (batch_proptests) run here
# as well, with the quiet kernels' `debug_assert`s compiled out: what ships
# is the optimized kernel, and it must still match the step loop digit for
# digit.
# With `remote` on, remote_equivalence runs here too: the remote engine
# pumps every worker's connection from one thread, interleaving round
# sends with report reads, and only optimized code is fast enough for
# the two to actually interleave. So does failover_injection: a commit
# rides the window's last round frames, inside that pump, so its kill
# and sever matrix must also land at release-build timing.
# The dsv-engine unit tests run optimized too (~2 s): `fork_join`'s
# claiming queue, the feed rings and the fleet's boundary tasks race
# only at release-build speed.
RELEASE_TESTS=(--test codec_robustness --test state_bounded --test fleet_equivalence --test state_roundtrip --test delta_checkpoint --test fleet_delta --test engine_equivalence --test engine_checkpoint --test pipeline_equivalence --test async_ingest --test message_ledger_pinned --test batch_proptests)
case " ${DSV_FEATURES:-} " in *remote*)
    RELEASE_TESTS+=(--test remote_equivalence --test failover_injection)
    ;;
esac
cargo test -q --release -p dsv ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"} "${RELEASE_TESTS[@]}"
cargo test -q --release -p dsv-engine --lib ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"}

step "cargo build --release --examples"
cargo build --release --examples ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"}

step "run 9 of the 11 examples (API regressions in non-test binaries fail here)"
# checkpoint_restore runs in its own gate step below; remote_failover is
# gated on the remote feature. pipelined_monitor asserts run_pipelined's
# bit-identity to run_parted and that fast feeds finish in a laggy
# feed's shadow, fleet_monitor asserts per-key fleet estimates are
# bit-identical to standalone trackers, and delta_checkpoint asserts the
# quiet-stream >= 10x shrink plus bit-identical mid-chain resume, so all
# three are gates in their own right.
for ex in quickstart compare_trackers network_monitor history_audit inventory_audit sharded_monitor pipelined_monitor fleet_monitor delta_checkpoint; do
    printf -- '-- example %s\n' "$ex"
    cargo run -q --release ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"} --example "$ex" > /dev/null
done

step "checkpoint/resume smoke gate (example checkpoint_restore)"
# Runs half the stream, checkpoints at a batch boundary, drops the
# engine, resumes from the serialized bytes onto a different worker
# count, and asserts the final estimates and CommStats ledgers are
# bit-identical to the straight-through run. Its asserts make it a gate
# (enforced like the e16 throughput gate); the full per-kind matrix
# lives in tests/engine_checkpoint.rs.
cargo run -q --release ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"} --example checkpoint_restore

case " ${DSV_FEATURES:-} " in *remote*)
    step "remote failover smoke gate (example remote_failover, 10th example)"
    # Spawns two dsv-shard-server worker processes behind a Unix-domain
    # socket (TCP loopback off unix), SIGKILLs one mid-stream, and asserts
    # the coordinator respawns the slot, restores from the last
    # auto-checkpoint, replays the gap, and ends bit-identical to the
    # in-process engine. The example's asserts make it a gate; the full
    # kind × transport × fault matrix lives in tests/remote_equivalence.rs
    # and tests/failover_injection.rs (run in the workspace-test step of
    # this matrix job via required-features).
    cargo run -q --release ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"} --example remote_failover > /dev/null
    ;;
esac

step "cargo bench --no-run (compile all 22 bench targets)"
# Workspace-wide compile of every bench target, plus an explicit
# `-p dsv-bench` pass so feature-gated targets (e20_remote, behind
# dsv-bench's `remote` mirror feature) compile in the matrix jobs whose
# seam they need — the facade-level --features flag doesn't reach
# dsv-bench's own feature list.
cargo bench --no-run --workspace ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"}
cargo bench --no-run -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"}

step "1s smoke run of one e* bench binary"
# The e* binaries are full experiments; a 1-second slice is enough to
# catch panics on their startup path. timeout exit 124 (alarm fired
# while the bench was still happily running) counts as success.
e11_bin=$(bench_bin e11_single_site)
[ -n "$e11_bin" ] || { echo "e11 bench binary not found"; exit 1; }
rc=0
timeout 1s "$e11_bin" > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 0 ] && [ "$rc" -ne 124 ]; then
    echo "bench smoke run failed with exit code $rc"
    exit 1
fi

step "e05 paper predicate (§3.3: zero violations, msgs <= message_bound)"
# The first paper experiment that gates: the full e05 sweep (~0.2 s) exits
# non-zero, naming the row, if any row has an eps violation or sends more
# messages than DeterministicTracker::message_bound(k, eps, v). Every
# equivalence suite compares the code with itself; this compares it with
# the paper.
e05_bin=$(bench_bin e05_deterministic)
[ -n "$e05_bin" ] || { echo "e05 bench binary not found"; exit 1; }
"$e05_bin" > /dev/null

step "e16 throughput smoke + parted gate + BENCH json schema gate"
# Full e16 sweep in --smoke mode (400k updates) writing machine-readable
# results, then the schema gate: non-empty stream/row tables, finite
# positive throughput numbers. The binary itself enforces the parted
# gate (best S=8 monotone parted speedup over the sequential Driver
# >= 5x) on full runs before writing any JSON; bench_schema re-enforces
# the recorded gate on the committed BENCH_e16.json (full 10M run), so
# the artifact can neither regress below the floor nor weaken it.
e16_bin=$(bench_bin e16_throughput)
[ -n "$e16_bin" ] || { echo "e16 bench binary not found"; exit 1; }
mkdir -p target/ci
"$e16_bin" --smoke --out target/ci/BENCH_e16.json > /dev/null
cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- target/ci/BENCH_e16.json
if [ -f BENCH_e16.json ]; then
    cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- BENCH_e16.json
fi

step "e17 pipeline smoke + overlap gate + BENCH json schema gate"
# The pipelined-ingestion experiment in --smoke mode. The binary itself
# enforces the overlap gate (slow-feed speedup >= 1.25x, smoke runs
# included — the overlap is production concurrency, which needs no
# second core) and asserts pipelined/sync bit-identity before any
# timing; bench_schema then re-enforces the recorded gate on both the
# fresh artifact and the committed full run, so a regression can't hide
# in either.
e17_bin=$(bench_bin e17_pipeline)
[ -n "$e17_bin" ] || { echo "e17 bench binary not found"; exit 1; }
"$e17_bin" --smoke --out target/ci/BENCH_e17.json > /dev/null
cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- target/ci/BENCH_e17.json
if [ -f BENCH_e17.json ]; then
    cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- BENCH_e17.json
fi

step "e18 fleet smoke + BENCH json schema + keys x throughput gate"
# The keyed-fleet scale experiment in --smoke mode (64k keys): exercises
# the cold-insert and steady phases, the per-key epsilon audits, and the
# standalone-twin bit-identity asserts. The scale gate itself (>= 1M
# live keys at >= 1e7 updates/sec) binds on full runs; bench_schema
# re-enforces it on the committed BENCH_e18.json, so the tracked
# artifact can neither regress nor weaken its own gates.
e18_bin=$(bench_bin e18_fleet)
[ -n "$e18_bin" ] || { echo "e18 bench binary not found"; exit 1; }
"$e18_bin" --smoke --out target/ci/BENCH_e18.json > /dev/null
cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- target/ci/BENCH_e18.json
if [ -f BENCH_e18.json ]; then
    cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- BENCH_e18.json
fi

step "e19 incremental-checkpoint smoke + BENCH json schema + shrink gate"
# The delta-encoded checkpoint store experiment in --smoke mode (24
# boundaries per scenario): materializes every retained boundary and
# asserts bit-identity before any byte count is believed. The >= 10x
# quiet-stream shrink gate is structural (an encoding property, not a
# machine-speed one), so the binary enforces it on smoke runs too — no
# JSON is written on failure — and bench_schema re-enforces it on both
# the fresh artifact and the committed BENCH_e19.json.
e19_bin=$(bench_bin e19_checkpoint)
[ -n "$e19_bin" ] || { echo "e19 bench binary not found"; exit 1; }
"$e19_bin" --smoke --out target/ci/BENCH_e19.json > /dev/null
cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- target/ci/BENCH_e19.json
if [ -f BENCH_e19.json ]; then
    cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- BENCH_e19.json
fi

case " ${DSV_FEATURES:-} " in *remote*)
    step "e20 remote-ingestion smoke + BENCH json schema + TCP/UDS parity gate"
    # The socket-tax experiment in --smoke mode: RemoteEngine throughput
    # across {uds,tcp} x {threads,processes}, one row each (there is one
    # remote round loop and no knob on it), every run audited
    # bit-identical to the in-process engine before its timing is
    # believed. The binary enforces tcp_uds_parity — on each spawn mode,
    # TCP >= 0.25x the same run over UDS; a ratio of two runs on one
    # host, so it binds on smoke too (0.6-1.3 on a healthy socket, 0.001
    # when a frame waits on Nagle) — before writing any JSON;
    # bench_schema re-enforces it on the fresh artifact and on the
    # committed BENCH_e20.json. DSV_SHARD_SERVER_BIN pins the worker
    # binary to the artifact this very gate just built.
    e20_bin=$(bench_bin e20_remote)
    [ -n "$e20_bin" ] || { echo "e20 bench binary not found"; exit 1; }
    DSV_SHARD_SERVER_BIN=target/release/dsv-shard-server \
        "$e20_bin" --smoke --out target/ci/BENCH_e20.json > /dev/null
    cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- target/ci/BENCH_e20.json
    if [ -f BENCH_e20.json ]; then
        cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- BENCH_e20.json
    fi
    ;;
esac

case " ${DSV_FEATURES:-} " in *remote*)
    step "benchmark smoke (benchmark/run.sh --smoke)"
    # The standalone benchmark package (/BENCHMARK.json) at 1/16 size:
    # it builds against the public surface listed at the end of
    # benchmark/README.md and verifies every pass of all five workloads
    # (reference trackers, eps audit, bit-identity, failover state)
    # before exiting 0 — which is what proves a deletion or refactoring
    # pass kept that surface compiling and its answers unchanged. Its
    # timings are not gated here. It depends on dsv-engine's `remote`
    # feature, hence the remote jobs; it builds into benchmark/target.
    bash benchmark/run.sh --smoke > /dev/null
    ;;
esac

step "bench_schema --all (every committed BENCH_*.json)"
# Safety net over the per-experiment steps above: glob-validate every
# committed artifact at the repo root in one pass, so a newly added
# BENCH_*.json is schema- and gate-checked from the moment it lands even
# if its dedicated ci.sh step is forgotten.
cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- --all

step "CHANGES.md top entry <= 150 words"
# A CHANGES entry is what changed, the claim, met or not, and a pointer;
# tables and run logs live in DESIGN.md / EXPERIMENTS.md (ROADMAP).
words=$(grep -m1 '^- ' CHANGES.md | wc -w)
[ "$words" -le 150 ] || { echo "top CHANGES.md entry is $words words (limit 150)"; exit 1; }

step "loc (Rust lines per crate + EngineConfig / RemoteConfig fields + wire formats -> target/ci/loc.json; <= 7 / 5 / 6)"
# "Net-negative" as a recorded number: lines of Rust per crate (the root
# facade is src/ + tests/ + examples/), excluding the standalone
# benchmark/ package, the vendored crates/compat/ stand-ins and target/.
# Under "nontest", the same per crate for non-test code only: every .rs
# file outside a tests/ directory, counted up to its first top-level
# `#[cfg(test)]` line (recorded, no ratchet).
# Beside them, the knob counts: the fields of `pub struct EngineConfig`
# and of `pub struct RemoteConfig`, ratchets: the step fails above
# MAX_ENGINE_CONFIG_FIELDS / MAX_REMOTE_CONFIG_FIELDS, so a new knob has
# to retire an old one. And the wire formats: the `*_MAGIC: [u8; 4]`
# constants under src/ and crates/, ratchet MAX_WIRE_FORMATS, so a new
# envelope has to retire one too.
rust_lines() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l | tr -d ' '; }
nontest_lines() {
    find "$@" -name '*.rs' -not -path '*/tests/*' \
        -exec awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' {} + \
        | awk '{ n += $1 } END { print n + 0 }'
}
struct_fields() {
    awk -v open="^pub struct $1 \\{" '$0 ~ open { on = 1; next }
        on && /^\}/ { exit }
        on && /^    (pub )?[a-z_]+:/ { n++ }
        END { print n + 0 }' "$2"
}
engine_config_fields=$(struct_fields EngineConfig crates/engine/src/config.rs)
remote_config_fields=$(struct_fields RemoteConfig crates/engine/src/remote/mod.rs)
wire_formats=$(grep -rhE --include='*.rs' '_MAGIC: \[u8; 4\]' src crates | wc -l | tr -d ' ')
{
    n=$(rust_lines src tests examples)
    m=$(nontest_lines src examples)
    total=$n
    nontest_total=$m
    nontest=$(printf '"dsv": %s' "$m")
    printf '{"dsv": %s' "$n"
    for dir in crates/*/; do
        crate=$(basename "$dir")
        [ "$crate" = compat ] && continue
        n=$(rust_lines "$dir")
        m=$(nontest_lines "$dir")
        total=$((total + n))
        nontest_total=$((nontest_total + m))
        nontest="$nontest, $(printf '"dsv-%s": %s' "$crate" "$m")"
        printf ', "dsv-%s": %s' "$crate" "$n"
    done
    printf ', "total": %s, "nontest": {%s, "total": %s}' "$total" "$nontest" "$nontest_total"
    printf ', "engine_config_fields": %s, "remote_config_fields": %s, "wire_formats": %s}\n' \
        "$engine_config_fields" "$remote_config_fields" "$wire_formats"
} > target/ci/loc.json
cat target/ci/loc.json
MAX_ENGINE_CONFIG_FIELDS=7
[ "$engine_config_fields" -le "$MAX_ENGINE_CONFIG_FIELDS" ] || {
    echo "EngineConfig has $engine_config_fields fields (ratchet: $MAX_ENGINE_CONFIG_FIELDS)"
    exit 1
}
MAX_REMOTE_CONFIG_FIELDS=5
[ "$remote_config_fields" -le "$MAX_REMOTE_CONFIG_FIELDS" ] || {
    echo "RemoteConfig has $remote_config_fields fields (ratchet: $MAX_REMOTE_CONFIG_FIELDS)"
    exit 1
}
MAX_WIRE_FORMATS=6
[ "$wire_formats" -le "$MAX_WIRE_FORMATS" ] || {
    echo "$wire_formats wire formats (ratchet: $MAX_WIRE_FORMATS)"
    exit 1
}

step "cargo doc --no-deps --workspace (warning-free)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"}

printf '\nCI green.\n'
