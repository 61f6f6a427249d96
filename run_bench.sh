#!/bin/bash
# Full evaluation pass: every experiment fanned out over domains, then the
# engine micro-benchmarks.  Produces:
#   bench_output.txt            text tables + engine micro rows
#   bench_json/BENCH_<exp>.json per-experiment canonical rows
#   bench_json/BENCH_all.json   combined canonical experiment rows
#   bench_json/BENCH_engine_micro.json  engine gate rows (fixed scale)
# Scale with MUTPS_BENCH_SCALE (e.g. 0.25), parallelism with BENCH_JOBS
# (default: Domain.recommended_domain_count).  Exits non-zero if any step
# failed, with the failing step's status.
set -u
cd "$(dirname "$0")"
mkdir -p bench_json

jobs_flag=()
if [ -n "${BENCH_JOBS:-}" ]; then
  jobs_flag=(--jobs "$BENCH_JOBS")
fi

status=0
{
  dune exec bin/mutps_cli.exe -- run "${jobs_flag[@]}" \
    --json bench_json/BENCH_all.json --json-dir bench_json all || status=$?
  dune exec bin/mutps_cli.exe -- engine-micro \
    --json bench_json/BENCH_engine_micro.json || status=$?
} > bench_output.txt 2>&1
echo "BENCH_EXIT=$status" >> bench_output.txt
touch .bench_done
exit "$status"
