#!/usr/bin/env bash
# Runs the benchmark's pair protocol on one workload and seed: PAIRS
# alternating runs of a parent commit and of the working tree, each
# `bash crpbench/run.sh --workload WORKLOAD --seed SEED --seconds 20
# --trace TRACE` in its own checkout, the parent first on odd pairs. Run
# from the repository root:
#
#   bash scripts/bench-pairs.sh PARENT WORKLOAD PAIRS SEED [TRACE]
#
# TRACE is 0 (the default) or 1.
# PARENT is any commit git can name. It is exported with git archive into
# .bench_build/pairs/parent (its own benchmark build cache survives between
# invocations). Each invocation keeps its runs in a new directory,
# .bench_build/pairs/WORKLOAD-sSEED-TIME/ (WORKLOAD-sSEED-trace-TIME/ with
# TRACE 1): every run's output in
# {parent,change}-PAIR.out and its JSON line in {parent,change}.jsonl.
#
# For each end-to-end metric in BENCHMARK.json it prints each side's median
# [Q1, Q3], the change's wins (ties count for neither) and a verdict:
#
#   gain                the change wins at least 9 in 10 pairs and the
#                       medians differ by more than the parent's Q3 - Q1;
#   worse beyond bound  the change's median is worse than the parent's by
#                       more than the metric's bound;
#   unresolved          either side's Q3 - Q1 exceeds the bound, and not
#                       every change run reads better than every parent run;
#   within bound        otherwise.
#
# With TRACE 1 the runs report the per-layer metrics instead of the
# end-to-end ones, and a second table follows with each per-layer metric in
# BENCHMARK.json: each side's median [Q1, Q3] and the change's wins, but no
# verdict, since per-layer metrics have no bound. A speed claim rests on
# TRACE 0 pairs; TRACE 1 pairs show which layer moved.
#
# Then each side's failed/attempted op totals. It is a report, not a gate.
set -euo pipefail

if [[ $# -lt 4 || $# -gt 5 || ! $3 =~ ^[1-9][0-9]*$ || ! ${5:-0} =~ ^[01]$ ]]; then
	echo "usage: bash scripts/bench-pairs.sh PARENT WORKLOAD PAIRS SEED [TRACE]" >&2
	exit 2
fi
parent=$1 workload=$2 pairs=$3 seed=$4 trace=${5:-0}
root=$(git rev-parse --show-toplevel)
cd "$root"
for tool in jq awk tar; do
	command -v "$tool" >/dev/null || { echo "bench-pairs: needs $tool" >&2; exit 2; }
done
rev=$(git rev-parse --verify "$parent^{commit}")

out=$root/.bench_build/pairs
pdir=$out/parent
mkdir -p "$pdir"
find "$pdir" -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
git archive "$rev" | tar -x -C "$pdir"

tag=$workload-s$seed
((trace == 0)) || tag+=-trace
runs=$out/$tag-$(date +%Y%m%dT%H%M%S)
mkdir "$runs"
for ((i = 1; i <= pairs; i++)); do
	order="parent change"
	((i % 2 == 1)) || order="change parent"
	for side in $order; do
		dir=$root
		[[ $side == parent ]] && dir=$pdir
		log=$runs/$side-$i.out
		echo "bench-pairs: pair $i/$pairs, $side" >&2
		(cd "$dir" && bash crpbench/run.sh --workload "$workload" --seed "$seed" --seconds 20 --trace "$trace") >"$log"
		tail -n 1 "$log" | jq -c --argjson pair "$i" '. + {pair: $pair}' >>"$runs/$side.jsonl"
	done
done

echo "bench-pairs: $workload, seed $seed,$( ((trace == 0)) || echo " trace 1,") $pairs pairs, parent ${rev:0:12} vs working tree (runs in $runs)"
{
	jq -r '.end_to_end[] | "B \(.name) \(.unit) \(.better) \(.bound)"' BENCHMARK.json
	((trace == 0)) || jq -r '.per_layer[] | "L \(.name) \(.unit) \(.better)"' BENCHMARK.json
	for side in parent change; do
		jq -r --arg s "$side" '"F \($s) \(.failed) \(.attempted)",
			(.metrics | to_entries[] | "V \($s) \(.key) \(.value.value)")' "$runs/$side.jsonl" |
			awk '/^F/ { print; next } { print $0, ++n[$3] }'
	done
} | awk '
	# quantile: linear interpolation between closest ranks of sorted a[1..n].
	function quantile(a, n, q,   h, lo) {
		h = (n - 1) * q + 1
		lo = int(h)
		return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	function sorted(side, m, dst,   n, i, j, t) {
		n = cnt[side, m]
		for (i = 1; i <= n; i++) dst[i] = val[side, m, i]
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
		return n
	}
	function better(m, a, b) { return lower[m] ? a < b : a > b }
	# summary: "median [Q1, Q3]" of sorted a[1..n].
	function summary(a, n) {
		return sprintf("%.6g [%.6g, %.6g]", quantile(a, n, 0.5), quantile(a, n, 0.25), quantile(a, n, 0.75))
	}
	# wins: pairs in which the change reads better than the parent.
	function wins(m,   i, w) {
		for (i = 1; i <= cnt["parent", m] && i <= cnt["change", m]; i++)
			if (better(m, val["change", m, i], val["parent", m, i])) w++
		return w + 0
	}
	function pairs(m) { return cnt["parent", m] < cnt["change", m] ? cnt["parent", m] : cnt["change", m] }
	$1 == "B" { names[++nm] = $2; unit[$2] = $3; lower[$2] = ($4 == "lower"); bound[$2] = $5; next }
	$1 == "L" { layers[++nl] = $2; unit[$2] = $3; lower[$2] = ($4 == "lower"); next }
	$1 == "F" { failed[$2] += $3; attempted[$2] += $4; next }
	$1 == "V" { val[$2, $3, $5] = $4; cnt[$2, $3] = $5 }
	END {
		printf "%-14s %-6s %-32s %-32s %-7s %s\n", "metric", "unit", "parent median [Q1, Q3]", "change median [Q1, Q3]", "wins", "verdict"
		for (k = 1; k <= nm; k++) {
			m = names[k]
			np = sorted("parent", m, p)
			nc = sorted("change", m, c)
			if (np == 0 || nc == 0) {
				printf "%-14s %-6s %s\n", m, unit[m], "not reported"
				continue
			}
			pm = quantile(p, np, 0.5); pq1 = quantile(p, np, 0.25); pq3 = quantile(p, np, 0.75)
			cm = quantile(c, nc, 0.5); cq1 = quantile(c, nc, 0.25); cq3 = quantile(c, nc, 0.75)
			w = wins(m); n = pairs(m)
			limit = bound[m] * (pm < 0 ? -pm : pm)
			worse = lower[m] ? cm - pm : pm - cm
			diff = cm > pm ? cm - pm : pm - cm
			allbetter = better(m, lower[m] ? c[nc] : c[1], lower[m] ? p[1] : p[np])
			if (better(m, cm, pm) && w * 10 >= 9 * n && diff > pq3 - pq1)
				verdict = "gain"
			else if (worse > limit)
				verdict = "worse beyond bound"
			else if ((pq3 - pq1 > limit || cq3 - cq1 > limit) && !allbetter)
				verdict = "unresolved"
			else
				verdict = "within bound"
			rel = pm != 0 ? sprintf(" (%+.1f%%)", 100 * (cm - pm) / (pm < 0 ? -pm : pm)) : ""
			printf "%-14s %-6s %-32s %-32s %-7s %s%s\n", m, unit[m], summary(p, np), summary(c, nc),
				w "/" n, verdict, rel
		}
		if (nl > 0) {
			printf "\n%-26s %-8s %-32s %-32s %s\n", "per-layer metric", "unit", "parent median [Q1, Q3]", "change median [Q1, Q3]", "wins"
			for (k = 1; k <= nl; k++) {
				m = layers[k]
				np = sorted("parent", m, p)
				nc = sorted("change", m, c)
				if (np == 0 || nc == 0) {
					printf "%-26s %-8s %s\n", m, unit[m], "not reported"
					continue
				}
				printf "%-26s %-8s %-32s %-32s %s\n", m, unit[m], summary(p, np), summary(c, nc), wins(m) "/" pairs(m)
			}
		}
		printf "failed/attempted ops: parent %d/%d, change %d/%d\n",
			failed["parent"], attempted["parent"], failed["change"], attempted["change"]
	}'
