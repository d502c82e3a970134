#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merging.
#
# Usage: scripts/ci.sh [--golden]
#   (no flag)  tier-1: build + tests + clippy + rustdoc
#   --golden   tier-2: the golden-artifact regression suite on the
#              reduced-cycle golden profile. Re-runs the full experiment
#              catalogue, diffs it against goldens/*.jsonl under
#              goldens/tolerances.json, asserts every EXPERIMENTS.md
#              headline claim, checks sweep determinism across worker
#              counts, round-trips `sweep --resume` through the real binary
#              against injected damage, diffs the fault-injection
#              campaign byte-for-byte against goldens/fault_campaign.jsonl,
#              diffs the dse Pareto frontier against
#              goldens/dse_frontier.jsonl under the shared tolerances,
#              and refreshes the batched lane-scaling row in
#              BENCH_hotpath.json. Leaves the suite manifest at target/sweep/
#              as the uploadable artifact.
#
# Runs from the repository root regardless of the caller's cwd.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--golden" ]]; then
    echo "== golden suite (tier-2) =="
    cargo build --release -p vs-bench
    cargo test --release -q -p vs-bench --test golden -- --ignored
    echo "== sweep artifact =="
    cargo run --release -q -p vs-bench --bin sweep -- \
        run --profile golden --out target/sweep --diff goldens
    echo "== dse frontier artifact =="
    # Deterministic tiny-grid frontier at the golden profile, diffed
    # against the blessed artifact under the shared tolerances.
    cargo run --release -q -p vs-bench --bin dse -- \
        --profile golden --deterministic --out target/dse-golden \
        --progress off --diff goldens/dse_frontier.jsonl \
        --tolerances goldens/tolerances.json > /dev/null
    echo "dse frontier golden: OK"
    echo "== fault-campaign artifact =="
    # The campaign artifact carries no wall-time events, so the golden is
    # compared byte-for-byte at the golden profile.
    VS_BENCH_SCALE=0.04 VS_BENCH_MAX_CYCLES=250000 \
        cargo run --release -q -p vs-bench --bin fault_campaign -- \
        --json target/fault_campaign.jsonl > /dev/null
    diff goldens/fault_campaign.jsonl target/fault_campaign.jsonl \
        && echo "fault-campaign golden: OK"
    echo "== batched lane-scaling record =="
    # Re-measures per-lane SoA solve cost at N=1/2/4/8 (asserting it falls
    # monotonically) and rewrites the lane_scaling_record row of the
    # committed artifact in place.
    VS_BENCH_SCALE=0.04 VS_BENCH_MAX_CYCLES=250000 \
        cargo run --release -q -p vs-bench --bin bench_hotpath -- \
        --record-lane-scaling BENCH_hotpath.json > /dev/null
    echo "suite manifest artifact: target/sweep/manifest.jsonl"
    echo "tier-2 golden gate: OK"
    exit 0
fi

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== pooled workspace reuse + sharded-sweep determinism =="
cargo test --release -q -p vs-core --test workspace_reuse
cargo test --release -q -p vs-core --test worst_case_key
cargo test --release -q -p vs-bench --test sweep_shard

echo "== batched SoA solving: differential + property + mask-fuzz suites =="
cargo test --release -q -p vs-circuit --test batched_vs_scalar
cargo test --release -q -p vs-circuit --test lane_permutation
cargo test --release -q -p vs-circuit --test batched_mask_fuzz

echo "== chaos smoke: panic/stall/torn-write survival + journaled resume =="
cargo test --release -q -p vs-bench --test chaos
cargo test --release -q -p vs-bench --test resume
cargo test --release -q -p vs-bench --test campaign_jobs

echo "== observability: traced chaos sweep, run report, baseline diff =="
cargo test --release -q -p vs-bench --test trace_report

echo "== dse: determinism matrix + torn-write resume, shared runs, frontier claims =="
cargo test --release -q -p vs-bench --test dse
# Tiny grid: the frontier claims (paper cell non-dominated) must pass.
cargo run --release -q -p vs-bench --bin dse -- \
    --profile tiny --out target/dse-smoke --progress off > /dev/null
# Full 1728-point grid at the tiny profile: each distinct circuit
# simulation runs once, so the summary must report the planned counts.
if ! cargo run --release -q -p vs-bench --bin dse -- \
    --grid full --profile tiny --jobs 0 \
    --out target/dse-full --progress off > /dev/null 2> target/dse-full.stderr \
    || ! grep -q "162 PDE runs, 882 worst-case runs" target/dse-full.stderr; then
    echo "dse full grid: failed or unexpected run counts"
    cat target/dse-full.stderr
    exit 1
fi
echo "dse smoke (tiny + full grid): OK"

echo "== diff-baseline self-check =="
# The regression gate must accept a store against itself and reject a
# tolerance-violating perturbation with a nonzero exit.
SWEEP=target/release/sweep
"$SWEEP" diff-baseline goldens goldens > /dev/null \
    && echo "diff-baseline goldens vs goldens: OK (exit 0)"
PERTURBED=$(mktemp -d)
trap 'rm -rf "$PERTURBED"' EXIT
cp goldens/*.jsonl "$PERTURBED"/
sed -i 's/"pde_avg{pds=ivr}":0\./"pde_avg{pds=ivr}":9./' "$PERTURBED/fig8.jsonl"
if "$SWEEP" diff-baseline goldens "$PERTURBED" > /dev/null 2>&1; then
    echo "diff-baseline accepted a perturbed candidate" >&2
    exit 1
fi
echo "diff-baseline perturbed candidate: OK (nonzero exit)"

echo "== serve smoke: stdio session, content-addressed cache hit =="
# Two cold processes against one store: the first computes and journals,
# the second must answer `cached` and a byte-identical `done` line (the
# concurrency and torn-entry halves of the contract live in the serve and
# cli_contract test suites above).
cargo test --release -q -p vs-bench --test serve
cargo test --release -q -p vs-bench --test cli_contract
SERVE=target/release/serve
SERVE_STORE=$(mktemp -d)
SERVE_REQ='{"id":"s1","kind":"experiment","experiment":"table1"}
{"id":"s2","kind":"shutdown"}'
FIRST=$(printf '%s\n' "$SERVE_REQ" | "$SERVE" --stdio --profile tiny \
    --store "$SERVE_STORE" --progress off 2> /dev/null)
SECOND=$(printf '%s\n' "$SERVE_REQ" | "$SERVE" --stdio --profile tiny \
    --store "$SERVE_STORE" --progress off 2> /dev/null)
rm -rf "$SERVE_STORE"
grep -q '"name":"running"' <<< "$FIRST" \
    || { echo "serve smoke: first run did not compute" >&2; exit 1; }
grep -q '"name":"cached"' <<< "$SECOND" \
    || { echo "serve smoke: second run missed the store" >&2; exit 1; }
diff <(grep '"name":"done"' <<< "$FIRST") <(grep '"name":"done"' <<< "$SECOND") \
    || { echo "serve smoke: responses diverged" >&2; exit 1; }
echo "serve smoke (cold-store cache hit, byte-identical response): OK"

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "tier-1 gate: OK"
