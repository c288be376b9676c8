#!/bin/sh
# Compare what the standard command set writes at a git revision with what
# it writes from the working tree.
#
# Usage: tools/behaviour_diff.sh <rev> [work-dir]
#
# <rev>'s src/ is exported with `git archive` into <work-dir>/rev-src. Each
# command then runs once on that source and once on the working tree's src/,
# each side in its own directory with the same relative output paths, and
# the two directories, stdout and stderr included, are compared with
# `diff -r`. Exits 0 when they are identical and every command succeeded, 1
# otherwise, 2 on a usage error. Needs git, tar, diff and python3 with numpy.
# The work dir defaults to a fresh `mktemp -d` and is kept for inspection.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <rev> [work-dir]" >&2
    exit 2
fi
rev=$1
repo=$(cd "$(dirname "$0")/.." && pwd)
work=${2:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)
rm -rf "$work/rev-src" "$work/rev" "$work/tree"
mkdir -p "$work/rev-src"
git -C "$repo" archive "$rev" src | tar -x -C "$work/rev-src"

# run <name> <linksched arguments...>: one command on the current side; its
# output and, on failure, its exit code land in log/<name>.txt.
run() {
    name=$1
    shift
    (cd "$side" && PYTHONPATH="$src" python3 -m linksched "$@") \
        > "$side/log/$name.txt" 2>&1 || echo "exit $?" >> "$side/log/$name.txt"
}

for which in rev tree; do
    side=$work/$which
    if [ "$which" = rev ]; then src=$work/rev-src/src; else src=$repo/src; fi
    mkdir -p "$side/log"
    # the train-mix configuration of perfbench/run.py
    cat > "$side/bench.cfg" <<'CFG'
graph_mix = star30:0.8,ba-m2:0.2
loads = 0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08
horizon = 64
lookahead = 5
batch_size = 64
layer_dims = 1,1
init = identity
CFG
    # every TrainConfig key, each (but init) away from its default
    cat > "$side/all-keys.cfg" <<'CFG'
episodes = 12
horizon = 16
lookahead = 3
phi = linear
batch_size = 16
replay_capacity = 100
graph_mix = star10:0.5,ba-m2:0.5
loads = 0.03,0.06
utility_kind = min
layer_dims = 1,4,1
leaky_slope = 0.1
init = glorot
base_lr = 0.002
lr_decay = 0.99
recompute_unscheduled = yes
checkpoint_interval = 4
seed = 9
CFG
    run train-default train --episodes 40 --seed 3 --out train-default
    run train-bench train --config bench.cfg --episodes 8 --seed 11 \
        --out train-bench
    run train-all-keys train --config all-keys.cfg --out train-all-keys
    # er and tree have nodes with no or one neighbor
    for family in star30 ba-mix er tree; do
        run "generate-$family" generate --config "$family" --instances 4 \
            --mu 0.03,0.07 --horizon 48 --seed 5 --out "gen-$family"
    done
    run eval-star30 eval --instances gen-star30 \
        --policies baseline,greedy,exact,gcn \
        --checkpoint train-default/checkpoint.ckpt --out eval-star30
    for family in ba-mix er tree; do
        run "eval-$family" eval --instances "gen-$family" \
            --policies baseline,greedy,gcn \
            --checkpoint train-default/checkpoint.ckpt --out "eval-$family"
    done
    # the 1,4,1 leaky network gives utilities of mixed sign
    run eval-star30-min eval --instances gen-star30 --utility min \
        --policies baseline,greedy,exact,gcn \
        --checkpoint train-all-keys/checkpoint.ckpt --out eval-star30-min
    run toy toy
    run report-star30 report --eval-dir eval-star30
    run report-ba-mix report --eval-dir eval-ba-mix
done

status=0
if ! diff -r "$work/rev" "$work/tree"; then
    echo "outputs differ between $rev and the working tree" >&2
    status=1
fi
if grep -l "^exit " "$work/rev/log"/*.txt "$work/tree/log"/*.txt >&2; then
    echo "the commands above failed" >&2
    status=1
fi
[ "$status" -eq 0 ] && echo "no difference: $work/rev and $work/tree"
exit "$status"
