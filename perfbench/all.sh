#!/bin/sh
# Print every metric of every workload by name and unit: the end-to-end
# run (--trace 0), then the traced run (--trace 1), for chain, grid and
# catalog.  Usage: sh perfbench/all.sh [seed] [seconds]
set -e
seed=${1:-1}
seconds=${2:-30}
for workload in chain grid catalog; do
    for trace in 0 1; do
        echo "== $workload --trace $trace"
        # drop the JSON line; the lines above it name every metric
        python3 "$(dirname "$0")/run.py" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" | sed '$d'
    done
done
