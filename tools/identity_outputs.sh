#!/usr/bin/env bash
# Write every output a change that claims "no simulated result moves"
# must leave byte-identical, one file per surface, so the check is a
# `diff -r` of two out dirs:
#
#   tools/identity_outputs.sh <build-dir> <out-dir>
#   tools/identity_outputs.sh ../parent/build parent-out
#   diff -r parent-out change-out
#
# Surfaces: the 15 fig/abl binaries' `--quick --no-cache --json` stdout
# and artifact; bare fig06_tradeoffs; the 8 demos' stdout; fig_numa
# `--quick --json`; abl_numa_firsttouch `--quick --numa-migrate`;
# schedfuzz's pinned regressions with and without `--no-racecheck`;
# `kop_merge --fingerprint`; and the `suite digest` line of propcheck.
# Only stdout is kept (stderr carries host-side job summaries), and
# every surface runs with the out dir as its working directory, so the
# artifact paths a figure prints are the same in every out dir.
# Exits nonzero as soon as a surface fails.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
repo=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
cd "$out"

for fig in fig06_tradeoffs fig07_epcc_rtk_phi fig08_epcc_pik_phi \
           fig09_nas_rtk_phi fig10_nas_pik_phi fig11_cck_abs_phi \
           fig12_cck_rel_phi fig13_epcc_8xeon fig14_nas_8xeon \
           fig15_cck_8xeon abl_pthread_layers abl_barrier \
           abl_numa_firsttouch abl_redzone abl_gang; do
  "$build/bench/$fig" --quick --no-cache --json "$fig.json" > "$fig.stdout"
done
"$build/bench/fig06_tradeoffs" > fig06_tradeoffs.bare.stdout
"$build/bench/fig_numa" --quick --json fig_numa.json > fig_numa.stdout
"$build/bench/abl_numa_firsttouch" --quick --numa-migrate \
  > abl_numa_firsttouch.migrate.stdout

for demo in quickstart nas_scaling kernel_openmp_shell cck_compiler_tour \
            pik_strace multikernel_partition nas_verify custom_workload; do
  "$build/examples/$demo" > "$demo.stdout"
done

regressions="$repo/tests/schedfuzz_regressions.txt"
"$build/examples/schedfuzz" --regressions="$regressions" \
  > schedfuzz.regressions.stdout
"$build/examples/schedfuzz" --regressions="$regressions" --no-racecheck \
  > schedfuzz.regressions.no-racecheck.stdout

"$build/examples/kop_merge" --fingerprint > kop_merge.fingerprint.stdout
# A scratch dir of its own, so two trees can be checked at once.
"$build/examples/propcheck" --seed 20260809 --budget 200 \
  --scratch "$out/propcheck-scratch" \
  | grep -o 'suite digest [0-9a-f]*' > propcheck.digest.stdout
rm -rf "$out/propcheck-scratch"

echo "identity_outputs: $(ls | wc -l) files in $out"
