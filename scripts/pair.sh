#!/bin/sh
# pair.sh — the benchmark's comparison protocol as a command:
#
#   scripts/pair.sh <parent-ref> <workload> [pairs=10] [seed=1]
#
# Exports <parent-ref> into .bench_build/pair/<commit>/ (git archive: a
# checkout with no entry in .git to clean up; removed again on exit),
# builds the benchmark on
# both sides, then runs `bash bench/run.sh --workload <workload> --seed
# <seed> --trace 0` on the parent export and on this working tree <pairs>
# times each, alternating which side goes first. Prints, per end-to-end
# metric of BENCHMARK.json, both medians, the parent's interquartile
# range, and how many pairs the change won, lost and tied; then failed /
# attempted operations per side. Exits 1 if either side failed an
# operation or a run printed no result. Every run's JSON line and stderr
# stay in .bench_build/pair/runs-<commit>-<workload>-<seed>/.
#
# A gain is claimed only when the change wins at least nine tenths of the
# pairs and the medians differ by more than the parent's IQR; run nothing
# else on the box meanwhile.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: scripts/pair.sh <parent-ref> <workload> [pairs=10] [seed=1]" >&2
    exit 2
fi
ref=$1 workload=$2 pairs=${3:-10} seed=${4:-1}

cd "$(dirname "$0")/.."
root=$PWD
commit=$(git rev-parse --short "$ref^{commit}")
head=$(git rev-parse --short HEAD)
git diff --quiet HEAD || head="$head+dirty"
parent="$root/.bench_build/pair/$commit"
out="$root/.bench_build/pair/runs-$commit-$workload-$seed"

rm -rf "$parent" "$out"
mkdir -p "$parent" "$out"
trap 'rm -rf "$parent"' EXIT # a second source tree confuses grep and editors
git archive "$commit" | tar -x -C "$parent"

# run.sh builds before it executes; -h makes the built binary exit at once.
for dir in "$parent" "$root"; do
    if ! (cd "$dir" && bash bench/run.sh -h) >"$out/build.log" 2>&1; then
        cat "$out/build.log" >&2
        echo "pair.sh: building the benchmark failed in $dir" >&2
        exit 1
    fi
done

echo "parent $commit vs change $head: $workload, seed $seed, $pairs pairs" >&2
i=1
while [ "$i" -le "$pairs" ]; do
    order="parent change"
    [ $((i % 2)) -eq 0 ] && order="change parent"
    for side in $order; do
        dir=$root stamp=$head
        [ "$side" = parent ] && dir=$parent stamp=$commit
        # A run that failed operations exits non-zero but still prints its
        # result line; the summary below counts them.
        (cd "$dir" && HB_BENCH_COMMIT=$stamp bash bench/run.sh --workload "$workload" --seed "$seed" --trace 0) \
            >"$out/$side-$i.json" 2>"$out/$side-$i.err" || true
        echo "  pair $i $side: $(tail -n 1 "$out/$side-$i.json" | cut -c1-60)..." >&2
    done
    i=$((i + 1))
done

# One line per sample: side pair metric value; attempted and failed ride
# along as metrics of their own.
for f in "$out"/parent-*.json "$out"/change-*.json; do
    name=$(basename "$f" .json)
    tail -n 1 "$f" | grep -o '"[A-Za-z0-9_.]*":\({"value":\)\{0,1\}[-0-9][-0-9.e+]*' |
        sed -e 's/{"value"//' -e 's/"//g' -e 's/:\{1,2\}/ /' -e "s/^/${name%-*} ${name##*-} /"
done >"$out/samples.txt"

awk -v pairs="$pairs" '
function sorted(side, metric, v,    n, i, j, t) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((side, i, metric) in val) v[++n] = val[side, i, metric]
    for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j-1] > v[j]; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
    return n
}
function quantile(v, n, p,    h, lo) {
    if (n == 0) return 0
    h = (n - 1) * p + 1; lo = int(h)
    return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo+1] - v[lo])
}
FILENAME ~ /BENCHMARK.json$/ {
    if ($0 ~ /"end_to_end"/) e2e = 1
    if ($0 ~ /"per_layer"/) e2e = 0
    if (e2e && $0 ~ /"name"/) { gsub(/[",]/, ""); name = $2; order[++metrics] = name }
    if (e2e && $0 ~ /"better"/) { gsub(/[",]/, ""); better[name] = $2 }
    next
}
{ val[$1, $2, $3] = $4 + 0; if ($3 == "attempted") runs[$1]++ }
END {
    printf "%-32s %14s %14s %14s  %3s %4s %4s\n", "metric", "parent median", "change median", "parent IQR", "won", "lost", "tied"
    for (m = 1; m <= metrics; m++) {
        name = order[m]
        np = sorted("parent", name, p); nc = sorted("change", name, c)
        if (np == 0 && nc == 0) continue
        won = lost = tied = 0
        for (i = 1; i <= pairs; i++) {
            if (!(("parent", i, name) in val) || !(("change", i, name) in val)) continue
            d = val["change", i, name] - val["parent", i, name]
            if (better[name] == "lower") d = -d
            if (d > 0) won++; else if (d < 0) lost++; else tied++
        }
        printf "%-32s %14.6g %14.6g %14.6g  %3d %4d %4d\n", name, quantile(p, np, 0.5), quantile(c, nc, 0.5),
            quantile(p, np, 0.75) - quantile(p, np, 0.25), won, lost, tied
    }
    bad = 0
    for (s = 1; s <= 2; s++) {
        side = s == 1 ? "parent" : "change"
        failed = attempted = 0
        for (i = 1; i <= pairs; i++) { failed += val[side, i, "failed"]; attempted += val[side, i, "attempted"] }
        printf "%s: failed %d of %d attempted over %d of %d runs\n", side, failed, attempted, runs[side], pairs
        if (failed > 0 || runs[side] != pairs) bad = 1
    }
    exit bad
}' BENCHMARK.json "$out/samples.txt"
