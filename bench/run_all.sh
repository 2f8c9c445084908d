#!/usr/bin/env bash
# Rebuild Release and refresh every BENCH_*.json baseline in the repo root,
# or check every baseline against a fresh run.
#
#   bench/run_all.sh                # configure+build ${BUILD_DIR:-build}, run all
#   bench/run_all.sh --check        # rerun all harnesses in a temp dir and
#                                   # compare with the committed JSON
#   BUILD_DIR=out bench/run_all.sh  # use a different build tree
#   SKIP_BUILD=1 bench/run_all.sh   # binaries are already fresh (bench_all target)
#
# Every harness writes BENCH_<name>.json into the working directory, so a
# refresh always runs them from the repository root — the committed
# baselines live there and a run refreshes them in place.
#
# --check leaves the committed files alone.  It fails if any file's row
# name set, or any row's peak_nodes, table_nodes, timeout flag or
# degradation count, differs from the committed JSON; these are
# machine-independent.  Wall time is reported, not gated.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${BUILD_DIR:-$root/build}"

check=0
case "${1:-}" in
  "") ;;
  --check) check=1 ;;
  *) echo "usage: bench/run_all.sh [--check]" >&2; exit 2 ;;
esac

if [[ "${SKIP_BUILD:-0}" != "1" ]]; then
  cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" -j"$(nproc)"
fi

benches=(bench_table1 bench_table2 bench_ablation bench_parallel bench_reachability
         bench_statevector bench_sparse bench_cache)
if [[ $check == 1 ]]; then
  workdir="$(mktemp -d)"
  trap 'rm -rf "$workdir"' EXIT
else
  workdir="$root"
fi

cd "$workdir"
status=0
for bench in "${benches[@]}"; do
  exe="$build/$bench"
  if [[ ! -x "$exe" ]]; then
    echo "run_all: missing $exe (configure with -DQTS_BUILD_BENCH=ON?)" >&2
    status=1
    continue
  fi
  echo "==> $bench"
  if ! "$exe"; then
    echo "run_all: $bench failed" >&2
    status=1
    continue
  fi
  echo
  if [[ $check == 1 ]]; then
    json="BENCH_${bench#bench_}.json"
    if ! python3 - "$root/$json" "$workdir/$json" <<'EOF'
import json
import sys

def rows(path):
    with open(path) as f:
        return {r["name"]: r for r in json.load(f)["records"]}

committed, fresh = rows(sys.argv[1]), rows(sys.argv[2])
bad = []
for name in sorted(committed.keys() ^ fresh.keys()):
    bad.append(f"{name}: only in {'committed' if name in committed else 'fresh'} run")
for name in sorted(committed.keys() & fresh.keys()):
    for field in ("peak_nodes", "table_nodes", "timeout", "degradations"):
        if committed[name][field] != fresh[name][field]:
            bad.append(f"{name}: {field} committed {committed[name][field]}, "
                       f"fresh {fresh[name][field]}")
label = sys.argv[1].rsplit("/", 1)[-1]
wall_c = sum(r["wall_ms"] for r in committed.values())
wall_f = sum(r["wall_ms"] for r in fresh.values())
print(f"check {label}: {len(fresh)} rows, wall {wall_f:.0f} ms "
      f"(committed {wall_c:.0f} ms, not gated)")
for line in bad:
    print(f"  MISMATCH {line}")
sys.exit(1 if bad else 0)
EOF
    then
      echo "run_all: $json differs from the committed baseline" >&2
      status=1
    fi
  fi
done
exit $status
