#!/bin/sh
# Run every simulated-cycle binary of a build tree and keep its output.
#
# usage: tools/sim_outputs.sh BUILD OUT
#
# Runs the 16 fig*/abl*/table*/ext* benches and the 5 deterministic
# examples of BUILD (a configured and built CMake tree), one after the
# other, writing each one's stdout and stderr to OUT/<name>.txt.
# runtime_demo is left out: it measures wall-clock time. These outputs
# depend only on the simulated machine, so two trees that should model
# the same thing compare with one `diff -r OUT1 OUT2`.
# Exits non-zero if a binary is missing or fails.

set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 BUILD OUT" >&2
    exit 2
fi
build=$1
out=$2

benches="fig03_breakdown fig04_hash_cache fig08_flow_register
fig09_single_lookup fig10_latency_breakdown fig11_tuple_space
fig12_collocation fig13_nf_speedup table1_instructions table4_power_area
abl_dispatch abl_hybrid abl_metadata_cache abl_scoreboard
ext_concurrency ext_tree_lookup"
examples="quickstart vswitch_pipeline nfv_chain hybrid_adaptive kv_store"

mkdir -p "$out"
status=0
run() {
    bin=$1
    name=$(basename "$bin")
    if [ ! -x "$bin" ]; then
        echo "missing: $bin" >&2
        status=1
        return
    fi
    start=$(date +%s)
    if "$bin" > "$out/$name.txt" 2>&1; then
        echo "$name: $(( $(date +%s) - start )) s"
    else
        echo "$name: FAILED (exit $?)" >&2
        status=1
    fi
}
for b in $benches; do
    run "$build/bench/$b"
done
for e in $examples; do
    run "$build/examples/$e"
done
exit $status
