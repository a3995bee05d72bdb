#!/usr/bin/env bash
# Times two commands interleaved (A, B, A, B, ... five rounds) and prints
# the best wall time of each in milliseconds, as "A_MS B_MS".
#
# Interleaving keeps a slow or fast stretch of a shared host from landing
# on one side only, which running all of A before all of B would allow.
#
# Usage: scripts/time_ab.sh CMD_A [ARGS...] -- CMD_B [ARGS...]
# Both commands' stdout is discarded; a failing command fails the script.
set -euo pipefail

a=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  a+=("$1")
  shift
done
if [ ${#a[@]} -eq 0 ] || [ $# -lt 2 ]; then
  echo "usage: $0 CMD_A [ARGS...] -- CMD_B [ARGS...]" >&2
  exit 2
fi
shift
b=("$@")

# Runs "$@" and leaves its wall time in ms in $elapsed.
run_ms() {
  local start
  start=$(date +%s%N)
  "$@" > /dev/null
  elapsed=$(( ($(date +%s%N) - start) / 1000000 ))
}

best_a=""
best_b=""
for _ in 1 2 3 4 5; do
  run_ms "${a[@]}"
  if [ -z "$best_a" ] || [ "$elapsed" -lt "$best_a" ]; then best_a=$elapsed; fi
  run_ms "${b[@]}"
  if [ -z "$best_b" ] || [ "$elapsed" -lt "$best_b" ]; then best_b=$elapsed; fi
done
echo "$best_a $best_b"
