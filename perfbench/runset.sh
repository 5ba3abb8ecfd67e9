#!/usr/bin/env bash
# Runs workloads once per seed and saves each run's output as
# <dir>/<workload>-<seed>.out, the input of the compare mode:
#
#   bash perfbench/runset.sh <dir> <seconds> <first-seed> <count> [workload...]
#   bash perfbench/run.sh compare <dir-A> <dir-B>
#
# Without workloads it runs all three.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
dir=$1 secs=$2 first=$3 count=$4
shift 4
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(paper-suite big-graphs daemon-mix)
mkdir -p "$dir"
for w in "${workloads[@]}"; do
	for ((s = first; s < first + count; s++)); do
		bash "$here/run.sh" --workload "$w" --seed "$s" --seconds "$secs" --trace 0 >"$dir/$w-$s.out"
		echo "$w seed $s: $(tail -n 1 "$dir/$w-$s.out")"
	done
done
