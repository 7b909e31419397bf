#!/usr/bin/env bash
# Local verification gate: what CI runs, runnable offline.
#
#   scripts/verify.sh          # build + test + fmt + clippy
#   scripts/verify.sh --quick  # build + test only
#
# fmt/clippy are skipped with a warning when the rustup components are
# not installed (minimal container images often lack them); the build
# and test steps are always required.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

step() { printf '\n==> %s\n' "$*"; }

step "cargo build --release"
cargo build --release --workspace

step "cargo test -q"
cargo test -q --workspace

# The benchmark harness is its own Cargo package (outside the
# workspace) built on the core's public API; its tests run every
# workload briefly, so an API change that breaks it fails here.
step "benchmark harness tests (perfbench)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Host front-end exhibits double as smoke checks: each binary parses its
# own results/<name>.json back and asserts the claimed invariants
# (QD-monotone IOPS/latency; zero lost acks across failover).
step "host exhibit smoke (exp_host_qd, exp_host_failover)"
cargo run -q --release -p purity-bench --bin exp_host_qd -- --smoke
cargo run -q --release -p purity-bench --bin exp_host_failover -- --smoke

# Crash-recovery torture smoke: a short power-loss sweep across all five
# crash phases (including tier-demote on a tiered array), plus the
# oracle's sabotage self-check. A failure leaves a one-line repro in
# results/exp_torture_repro.txt (see TESTING.md).
step "crash-recovery torture smoke (exp_torture)"
cargo run -q --release -p purity-bench --bin exp_torture -- --seeds 10 --smoke

# Flight-recorder smoke: a forced GC-storm + drive-pull interference
# window must open and close exactly one SLO incident, with violations
# confined to the window and byte-identical same-seed exports; the
# fig7 trace must cover every driven read (see OBSERVABILITY.md).
step "flight recorder smoke (exp_slo, fig7_fiveminute)"
cargo run -q --release -p purity-bench --bin exp_slo -- --smoke
cargo run -q --release -p purity-bench --bin fig7_fiveminute -- --smoke

# Replication fabric smoke: the bandwidth x flap-rate grid must
# converge every cell to a bit-exact replica, order its wire costs
# (heavier flapping => more retransmits; thinner pipe => longer link
# time), and export byte-identical telemetry across same-seed sweeps.
step "replication fabric smoke (exp_replication)"
cargo run -q --release -p purity-bench --bin exp_replication -- --smoke

# Cluster plane smoke: the size x link-profile grid must keep acking
# 100% of client ops while one member is killed mid-traffic, confirm
# the death over SWIM, rebuild back to full redundancy, and export
# byte-identical cluster_* telemetry across same-seed sweeps.
step "cluster plane smoke (exp_cluster)"
cargo run -q --release -p purity-bench --bin exp_cluster -- --smoke

# Tail-blame smoke: the causal-tracing exhibit must show >=80% of
# p99.9-cohort blame on die-stall categories with read-around off, a
# >=5x die-stall reduction with it on, cluster redirect + reconstruct
# blame confined to the kill window, and byte-identical same-seed
# exports (see OBSERVABILITY.md, "Causal tracing and tail blame").
step "tail-blame smoke (exp_blame)"
cargo run -q --release -p purity-bench --bin exp_blame -- --smoke

# Tiering-engine smoke: the running 2Q cache must reproduce Figure 7's
# 31/22/21-minute crossovers as measured retention, and the VDI
# working-set shift must demote overnight, pay tier_cold blame on the
# morning's first wave, promote back, and recover hit-rate — with
# byte-identical exports at worker widths 1/2/8 (see EXPERIMENTS.md E18).
step "tiering engine smoke (exp_fiveminute_live)"
cargo run -q --release -p purity-bench --bin exp_fiveminute_live -- --smoke

if [[ $quick -eq 1 ]]; then
  echo "--quick: skipping fmt/clippy"
  exit 0
fi

if cargo fmt --version >/dev/null 2>&1; then
  step "cargo fmt --check"
  cargo fmt --all --check
else
  echo "WARNING: rustfmt not installed; skipping cargo fmt --check" >&2
fi

if cargo clippy --version >/dev/null 2>&1; then
  step "cargo clippy -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings
else
  echo "WARNING: clippy not installed; skipping cargo clippy" >&2
fi

echo
echo "verify: all checks passed"
