#!/usr/bin/env bash
# Local CI gate: everything must pass before a change lands.
#
#   ./ci.sh          full gate (release build, tests, clippy, fmt)
#   ./ci.sh fast     skip the release build (debug tests + lints only)
#
# The workspace builds fully offline: external dependencies are vendored
# stand-ins under vendor/ (see Cargo.toml), so no registry access is
# needed at any step.
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

# Every package must resolve inside the repository: a registry or git
# package either fails offline resolution or appears as a `source =` line
# in the lock file. $1 is the manifest; --offline keeps it off the network.
lock_is_local() {
    cargo metadata -q --offline --format-version 1 --manifest-path "$1" > /dev/null 2>&1 \
        && ! grep -q '^source = ' "$(dirname "$1")/Cargo.lock"
}

if [[ "${1:-}" != "fast" ]]; then
    step "cargo build --release"
    cargo build --release --workspace
fi

step "cargo test -q"
cargo test -q --workspace

step "determinism oracle (debug build)"
# The debug build is the strict one: debug_assert invariants (similarity
# bounds, eviction-order checks) are live, and overflow checks are on. The
# oracle proves bit-identical SimResults across worker thread counts (1 vs
# 8), across hashers (SipHash vs FxHash), and across repeated runs — the
# property every committed figure depends on. Runs in `fast` mode too.
cargo test -q -p planaria-sim --test determinism

step "cargo bench --no-run (benches must compile)"
cargo bench --no-run --workspace

step "perfbench compiles against the workspace crates"
# perfbench is a workspace of its own, so the steps above never compile
# it: a change to a public API it calls would first fail in a benchmark
# run. The separate target dir leaves perfbench/ untouched and --locked
# keeps perfbench/Cargo.lock as it is.
CARGO_TARGET_DIR=target/perfbench cargo check --offline --locked --all-targets \
    --manifest-path perfbench/Cargo.toml

step "serve load peak RSS per device (2000 sessions, debug build)"
# Runs in `fast` mode too: --check fails above 112 KiB of peak RSS
# per device (serve_load's MAX_RSS_KB_PER_DEVICE). A lean session measures
# ~87 KiB in this debug run; before sessions sized their queues and maps by
# use it measured ~160 KiB.
cargo run -q -p planaria-bench --bin serve_load -- \
    --devices 2000 --len 40 --out target/serve_load_fast.json
cargo run -q -p planaria-bench --bin serve_load -- --check target/serve_load_fast.json

if [[ "${1:-}" != "fast" ]]; then
    step "perf baseline (single-thread throughput -> BENCH_perf.json)"
    cargo run --release -q -p planaria-bench --bin perf_baseline
    # Fail the gate on a malformed measurement file.
    cargo run --release -q -p planaria-bench --bin perf_baseline -- --check BENCH_perf.json

    step "contention sweep (closed-loop traffic model smoke test)"
    cargo run --release -q -p planaria-bench --bin contention -- \
        --len 4000 --apps hok --windows 2,8 --out target/contention_ci.json
    cargo run --release -q -p planaria-bench --bin contention -- --check target/contention_ci.json

    step "serve load (100k concurrent device sessions through planaria-serve)"
    # The service-layer scale gate: every session is a live snapshottable
    # state machine (SC + prefetcher + DRAM), all resident at once. Short
    # per-session traces keep the wall clock down; the concurrency is the
    # point. --check validates the emitted planaria-serve-v1 document and
    # its peak-RSS-per-device bound. Measured at 10k devices x 40 accesses
    # on a 2-core host: 829 MiB peak (85 KiB per device), so this step
    # needs ~8.1 GiB (~15.3 GiB at the earlier 160 KiB/device).
    cargo run --release -q -p planaria-bench --bin serve_load -- \
        --devices 100000 --len 40 --out target/serve_load_ci.json
    cargo run --release -q -p planaria-bench --bin serve_load -- --check target/serve_load_ci.json

    step "streamed replay (pack 10M accesses, replay from disk)"
    # Exercises the full on-disk path at a size where materializing would
    # cost ~180 MB but the streamed replay stays flat: record a packed
    # planaria-trace-v1 file with trace_pack and replay it through the
    # streamed engine. The gate is that the 10M-access replay finishes
    # without a latched stream error (the engine panics on one) and emits
    # a well-formed document. Fingerprints are not compared here: that
    # needs --verify, and --check only validates their format.
    cargo run --release -q -p planaria-trace --bin trace_pack -- \
        record --app HoK --len 10000000 --out target/ci_hok10m.ptrace
    cargo run --release -q -p planaria-bench --bin perf_baseline -- \
        --stream --trace target/ci_hok10m.ptrace --out target/ci_stream.json
    cargo run --release -q -p planaria-bench --bin perf_baseline -- --check target/ci_stream.json
    rm -f target/ci_hok10m.ptrace
fi

step "planaria-lint --check (determinism and concurrency invariants)"
lint_start=$(date +%s%N)
cargo run -q -p planaria-lint -- --check --out target/lint_report.json
# The emitted report must itself conform to the planaria-lint-v2 schema.
cargo run -q -p planaria-lint -- --validate target/lint_report.json
lint_ms=$(( ( $(date +%s%N) - lint_start ) / 1000000 ))

step "planaria-lint negative test (a seeded R12 violation must fail --check)"
neg_root=target/lint_negative
rm -rf "$neg_root"
mkdir -p "$neg_root/crates/demo/src"
printf '//! Demo.\n/// Unbounded.\npub fn f() { let _ = std::sync::mpsc::channel::<u8>(); }\n' \
    > "$neg_root/crates/demo/src/lib.rs"
if cargo run -q -p planaria-lint -- --root "$neg_root" --check \
        --out target/lint_negative.json > /dev/null 2>&1; then
    echo "planaria-lint negative test failed: seeded violation passed --check"
    exit 1
fi
if ! grep -q '"rule": "R12"' target/lint_negative.json; then
    echo "planaria-lint negative test failed: no R12 finding in the report"
    exit 1
fi

step "planaria-lint R9 negative test (an *indirect* wall-clock call must fail --check)"
# driver.rs never names a clock — the token-level R2 cannot see it. Only
# the call-graph pass (R9) can taint drive() through crate::clock.
r9_root=target/lint_negative_r9
rm -rf "$r9_root"
mkdir -p "$r9_root/crates/demo/src"
printf '//! Demo.\npub mod clock;\npub mod driver;\n' > "$r9_root/crates/demo/src/lib.rs"
printf '//! Clock.\n/// Direct wall-clock read.\npub fn read_clock() -> u64 {\n    let _ = std::time::Instant::now();\n    0\n}\n' \
    > "$r9_root/crates/demo/src/clock.rs"
printf '//! Driver.\n/// Indirect: reaches the clock only through a call.\npub fn drive() -> u64 {\n    crate::clock::read_clock()\n}\n' \
    > "$r9_root/crates/demo/src/driver.rs"
if cargo run -q -p planaria-lint -- --root "$r9_root" --check \
        --out target/lint_negative_r9.json > /dev/null 2>&1; then
    echo "planaria-lint R9 negative test failed: indirect wall clock passed --check"
    exit 1
fi
if ! grep -q '"rule": "R9"' target/lint_negative_r9.json; then
    echo "planaria-lint R9 negative test failed: no R9 finding in the report"
    exit 1
fi
if ! grep -q 'driver.rs' target/lint_negative_r9.json; then
    echo "planaria-lint R9 negative test failed: R9 did not taint driver.rs"
    exit 1
fi

step "every member inherits the workspace lints"
# The lint table in the root Cargo.toml only reaches crates that opt in.
for manifest in crates/*/Cargo.toml vendor/*/Cargo.toml; do
    if ! grep -qzP '\n\[lints\]\nworkspace = true\n' "$manifest"; then
        echo "$manifest lacks '[lints] workspace = true'"
        exit 1
    fi
done

step "Cargo.lock names no registry or git package"
# crates/lint's fixture tests (run above) show that a registry or git
# dependency fails this check, and that the retired lint rules' fixtures
# fail clippy under the workspace lint table.
lock_is_local Cargo.toml || { echo "Cargo.lock resolves a package outside the repository"; exit 1; }

step "markdown link check (local targets must exist)"
link_fail=0
for doc in README.md DESIGN.md EXPERIMENTS.md ARCHITECTURE.md SERVING.md; do
    [[ -f "$doc" ]] || { printf '  %s: file missing\n' "$doc"; link_fail=1; continue; }
    # Every local markdown link target (not http/mailto/#anchor) must exist.
    while IFS= read -r target; do
        case "$target" in
            http*|mailto:*|'#'*) continue ;;
        esac
        path="${target%%#*}"
        if [[ ! -e "$path" ]]; then
            printf '  %s: broken link -> %s\n' "$doc" "$target"
            link_fail=1
        fi
    done < <(grep -oE '\]\([^)]+\)' "$doc" | sed 's/^](//; s/)$//')
done
[[ "$link_fail" -eq 0 ]] || { echo "markdown link check failed"; exit 1; }

step "cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo fmt --check"
cargo fmt --all --check

step "cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

step "ci.sh: all green (planaria-lint --check wall-clock: ${lint_ms} ms)"
