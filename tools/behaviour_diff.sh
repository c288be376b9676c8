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
# `diff -r`. Commands run with `refuse` are expected to fail: their output
# and exit status land in log/refused-<name>.txt and are compared too, but
# their failure is not counted. Exits 0 when the two sides are identical
# and every other command succeeded, 1 otherwise, 2 on a usage error.
# Needs git, tar, diff, awk, head, wc and python3 with numpy.
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

# refuse <name> <linksched arguments...>: one command expected to fail on
# the current side; its output and exit status land in
# log/refused-<name>.txt.
refuse() {
    name=$1
    shift
    code=0
    (cd "$side" && PYTHONPATH="$src" python3 -m linksched "$@") \
        > "$side/log/refused-$name.txt" 2>&1 || code=$?
    echo "status $code" >> "$side/log/refused-$name.txt"
}

# edit <copy> <from> <file> <awk program>: <from> copied to <copy> on the
# current side, then <file> of its first instance rewritten by the program
edit() {
    cp -R "$side/$2" "$side/$1"
    file=$side/$1/instance_0000/$3
    awk "$4" "$file" > "$file.new" && mv "$file.new" "$file"
}

# chop <copy> <from> <file> <bytes>: <from> copied to <copy> on the current
# side, then the last <bytes> bytes of <file> of its first instance cut off
chop() {
    cp -R "$side/$2" "$side/$1"
    file=$side/$1/instance_0000/$3
    size=$(wc -c < "$file")
    head -c $((size - $4)) "$file" > "$file.new" && mv "$file.new" "$file"
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
batch_size = 16
replay_capacity = 100
graph_mix = star10:0.5,ba-m2:0.5
loads = 0.03,0.06
layer_dims = 1,4,1
init = glorot
base_lr = 0.002
lr_decay = 0.99
checkpoint_interval = 4
seed = 9
CFG
    # the edges of the lookahead window: a single rollout step, and more
    # steps than the horizon has slots
    cat > "$side/lookahead-1.cfg" <<'CFG'
lookahead = 1
CFG
    cat > "$side/lookahead-9.cfg" <<'CFG'
horizon = 6
lookahead = 9
CFG
    # replay batches of up to six node counts (11, 50 and 150-300), so
    # the replay's stacked forward runs several groups per batch
    cat > "$side/mixed-sizes.cfg" <<'CFG'
episodes = 12
horizon = 8
lookahead = 3
batch_size = 32
graph_mix = star10:0.4,ba-mix:0.3,er:0.3
layer_dims = 1,4,1
seed = 6
CFG
    # 100-300-node BA graphs, one with 20 attachments, and glorot weights
    # of both signs (theta0 < 0 < theta1 at seed 6), so utilities of mixed
    # sign: training's greedy main trajectory must schedule what LGS did
    cat > "$side/ba-mix.cfg" <<'CFG'
episodes = 6
horizon = 8
lookahead = 3
graph_mix = ba-mix:1.0
init = glorot
seed = 6
CFG
    # every episode on a star, so each run builds its star graphs once and
    # shares them: one graph of one size, then graphs of two sizes
    cat > "$side/star30.cfg" <<'CFG'
graph_mix = star30:1.0
CFG
    cat > "$side/two-stars.cfg" <<'CFG'
graph_mix = star5:0.5,star30:0.5
CFG
    # star49, er and tree graphs all have 50 nodes, so a replay group
    # stacks the run's one star Laplacian beside a new one per er or tree
    # episode, through a hidden layer's forward and backward
    cat > "$side/shared-laplacian.cfg" <<'CFG'
graph_mix = star49:0.4,er:0.3,tree:0.3
layer_dims = 1,4,1
CFG
    # the identity GCN at a learning rate that moves it away from the
    # baseline and back within 40 episodes, so the lookahead's rollouts
    # leave the trajectory at every slot of some episodes, at a few of
    # others and at none of the rest
    cat > "$side/drift.cfg" <<'CFG'
init = identity
base_lr = 0.05
CFG
    run train-default train --episodes 40 --seed 3 --out train-default
    run train-drift train --config drift.cfg --episodes 40 --seed 16 \
        --out train-drift
    run train-star30 train --config star30.cfg --episodes 40 --seed 12 \
        --out train-star30
    run train-two-stars train --config two-stars.cfg --episodes 40 \
        --seed 13 --out train-two-stars
    run train-shared-laplacian train --config shared-laplacian.cfg \
        --episodes 40 --seed 14 --out train-shared-laplacian
    run train-lookahead-1 train --config lookahead-1.cfg --episodes 40 \
        --seed 4 --out train-lookahead-1
    run train-lookahead-9 train --config lookahead-9.cfg --episodes 40 \
        --seed 5 --out train-lookahead-9
    run train-bench train --config bench.cfg --episodes 8 --seed 11 \
        --out train-bench
    run train-all-keys train --config all-keys.cfg --out train-all-keys
    run train-mixed-sizes train --config mixed-sizes.cfg \
        --out train-mixed-sizes
    run train-ba-mix train --config ba-mix.cfg --out train-ba-mix
    # er and tree have nodes with no or one neighbor
    for family in star5 star10 star30 ba-mix er tree; do
        run "generate-$family" generate --config "$family" --instances 4 \
            --mu 0.03,0.07 --horizon 48 --seed 5 --out "gen-$family"
    done
    # ba-m20 draws with the most retries of any preset, and in ba-m69 one
    # added node draws all 69 seed nodes from the uniform start
    for family in ba-m20 ba-m69; do
        run "generate-$family" generate --config "$family" --instances 4 \
            --mu 0.03,0.07 --horizon 8 --seed 5 --out "gen-$family"
    done
    # four-digit columns in both instance files: node IDs up to 1200 in
    # graph.txt and trace.csv, and slots up to 1099 in trace.csv
    run generate-star1200 generate --config star1200 --instances 1 \
        --horizon 2 --seed 5 --out gen-star1200
    run generate-star5-long generate --config star5 --instances 1 \
        --horizon 1100 --seed 5 --out gen-star5-long
    for case in star1200 star5-long; do
        run "eval-$case" eval --instances "gen-$case" \
            --policies baseline,greedy --out "eval-$case"
    done
    run eval-star30 eval --instances gen-star30 \
        --policies baseline,greedy,exact,gcn \
        --checkpoint train-default/checkpoint.ckpt --out eval-star30
    # the policies in other orders: the two LGS policies side by side, last
    # and apart, and none at all, which writes no ars.csv
    run eval-star30-adjacent eval --instances gen-star30 \
        --policies baseline,gcn,exact,greedy \
        --checkpoint train-default/checkpoint.ckpt --out eval-star30-adjacent
    run eval-star30-lgs-last eval --instances gen-star30 \
        --policies greedy,exact,gcn,baseline \
        --checkpoint train-default/checkpoint.ckpt --out eval-star30-lgs-last
    run eval-star30-no-lgs eval --instances gen-star30 \
        --policies greedy,exact --out eval-star30-no-lgs
    # small stars whose hub and leaves weigh differently, so the exact
    # solver's search ends with the hub in or with it out
    for family in star5 star10; do
        run "eval-$family" eval --instances "gen-$family" \
            --policies baseline,greedy,exact,gcn \
            --checkpoint train-default/checkpoint.ckpt --out "eval-$family"
    done
    for family in ba-mix er tree; do
        run "eval-$family" eval --instances "gen-$family" \
            --policies baseline,greedy,gcn \
            --checkpoint train-default/checkpoint.ckpt --out "eval-$family"
    done
    # star30 instances of horizons 48 and 32 from two generate runs, in one
    # directory as A A B B A B A A: eval's groups of instances that share
    # a graph break on the horizon
    run generate-star30-short generate --config star30 --instances 3 \
        --mu 0.05 --horizon 32 --seed 8 --out gen-star30-short
    mkdir -p "$side/gen-star30-mixed"
    k=0
    for from in gen-star30/instance_0000 gen-star30/instance_0001 \
            gen-star30-short/instance_0000 gen-star30-short/instance_0001 \
            gen-star30/instance_0002 gen-star30-short/instance_0002 \
            gen-star30/instance_0003 gen-star30/instance_0004 \
            gen-star30/manifest.txt; do
        to=$(basename "$from")
        case $to in instance_*) to=instance_000$k; k=$((k + 1)) ;; esac
        cp -R "$side/$from" "$side/gen-star30-mixed/$to" \
            2>> "$side/log/copy-star30-mixed.txt" \
            || echo "exit $?" >> "$side/log/copy-star30-mixed.txt"
    done
    run eval-star30-mixed eval --instances gen-star30-mixed \
        --policies baseline,greedy,exact,gcn \
        --checkpoint train-default/checkpoint.ckpt --out eval-star30-mixed
    run eval-star30-mixed-lgs-last eval --instances gen-star30-mixed \
        --policies greedy,exact,gcn,baseline \
        --checkpoint train-default/checkpoint.ckpt \
        --out eval-star30-mixed-lgs-last
    # the 1,4,1 leaky network gives utilities of mixed sign
    run eval-star30-deep eval --instances gen-star30 \
        --policies baseline,greedy,exact,gcn \
        --checkpoint train-all-keys/checkpoint.ckpt --out eval-star30-deep
    # at load 0.01 the baseline's median backlog is 0 on some instances
    # where the trained GCN's is not: those ARs are x/0 = inf
    run generate-star30-low generate --config star30 --instances 4 \
        --mu 0.01 --horizon 48 --seed 5 --out gen-star30-low
    run eval-star30-low eval --instances gen-star30-low \
        --policies baseline,greedy,exact,gcn \
        --checkpoint train-default/checkpoint.ckpt --out eval-star30-low
    # hand-edited instances, files cut short and a header count that is
    # not plain decimal: each eval must refuse its input and name the file
    # and line
    edit gen-star30-swapped gen-star30 trace.csv \
        'NR == 4 { held = $0; next } NR == 5 { print; print held; next } 1'
    edit gen-star30-blank gen-star30 graph.txt 'NR == 10 { print "" } 1'
    edit gen-star30-huge gen-star30 trace.csv \
        'BEGIN { FS = OFS = "," } NR == 3 { $3 = "9223372036854775808" } 1'
    edit gen-star30-seed gen-star30 trace.csv \
        'NR == 1 { sub(/seed=[^ ]*/, "seed=abc") } 1'
    # the trace's last rate and the graph's last endpoint, "0 30", cut
    # inside their numbers
    chop gen-star30-cut-trace gen-star30 trace.csv 3
    chop gen-star30-cut-graph gen-star30 graph.txt 2
    edit gen-star30-header gen-star30 graph.txt 'NR == 1 { $0 = "nodes 3_1" } 1'
    # a byte that is not UTF-8, 0xff, at the start of the first edge line
    edit gen-star30-non-utf8 gen-star30 graph.txt 'NR == 3 { $0 = "\377" $0 } 1'
    # line ends other than the writer's: the graph rewritten with \r\n, and
    # the trace with \n alone and with a lone \r
    edit gen-star30-crlf-graph gen-star30 graph.txt '{ printf "%s\r\n", $0 }'
    edit gen-star30-lf-trace gen-star30 trace.csv '{ sub(/\r$/, ""); print }'
    edit gen-star30-cr-trace gen-star30 trace.csv \
        '{ sub(/\r$/, ""); printf "%s\r", $0 }'
    head -c 20 "$side/train-default/checkpoint.ckpt" > "$side/cut.ckpt"
    for case in swapped blank huge seed cut-trace cut-graph header \
            non-utf8 crlf-graph lf-trace cr-trace; do
        refuse "eval-star30-$case" eval --instances "gen-star30-$case" \
            --policies baseline,greedy --out "eval-star30-$case"
    done
    refuse eval-star30-cut-checkpoint eval --instances gen-star30 \
        --policies baseline,gcn --checkpoint cut.ckpt \
        --out eval-star30-cut-checkpoint
    # a network of two input features, which load_checkpoint reads but the
    # scheduler, feeding it backlog x rate alone, cannot run
    python3 -c "import struct, sys; sys.stdout.buffer.write(b'LNKSGCN2' \
+ struct.pack('<3i5d', 1, 2, 1, 0.2, 1.0, 1.0, 1.0, 1.0))" \
        > "$side/wide.ckpt"
    refuse eval-star30-wide-checkpoint eval --instances gen-star30 \
        --policies baseline,gcn --checkpoint wide.ckpt \
        --out eval-star30-wide-checkpoint
    # a learning rate at which the first Adam step would overflow the
    # parameters: a run of one episode and one of three both stop there
    cat > "$side/overflow.cfg" <<'CFG'
graph_mix = star5:1
loads = 0.5
base_lr = 1e308
CFG
    for episodes in 1 3; do
        refuse "train-overflow-$episodes" train --config overflow.cfg \
            --episodes "$episodes" --out "train-overflow-$episodes"
    done
    # a learning rate below 0, which would train by gradient ascent, and a
    # decay of 0, which would stop learning after the first episode
    echo "base_lr = -1" > "$side/negative-lr.cfg"
    echo "lr_decay = 0" > "$side/zero-decay.cfg"
    for case in negative-lr zero-decay; do
        refuse "train-$case" train --config "$case.cfg" --episodes 2 \
            --out "train-$case"
    done
    # a family's count with a leading zero, which names no family
    refuse generate-star030 generate --config star030 --instances 1 \
        --out gen-star030
    run toy toy
    # the toy away from its default horizon and burn-in
    run toy-short toy --horizon 9 --burn-in 3
    run report-star30 report --eval-dir eval-star30
    run report-ba-mix report --eval-dir eval-ba-mix
    run report-star30-low report --eval-dir eval-star30-low
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
