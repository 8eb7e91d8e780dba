#!/usr/bin/env bash
# Compares the outputs of cmd/crp at a parent commit and in the working
# tree on the same benchgen inputs. Run from the repository root:
#
#   bash scripts/output-identity.sh PARENT
#
# PARENT is any commit git can name. It is exported with git archive into
# .bench_build/identity/parent, as scripts/bench-pairs.sh exports its
# parent. Each side builds its own cmd/crp and cmd/benchgen and writes,
# under .bench_build/identity/runs/{parent,change}/:
#
#   in/S/crp_testN.{lef,def}     benchgen -scale S, S = 0.004 and 0.02 (all
#                                ten circuits) and 0.05 (crp_test7 only);
#   out/S/crp_testN.{def,guide}  crp -k 10 -out -guide on each of them;
#   ckpt/                        the -checkpoint-dir of the crp_test7@0.004
#                                run (its out/ckpt.{def,guide} too);
#   eco/edit.json, eco/eco.{def,guide}
#                                a 16-move benchgen -eco-delta against that
#                                run's DEF, and crp -eco-from on it.
#
# Then it prints one line per file that differs between the sides or
# exists on one only, inputs included, and a summary count. Run logs
# (log/) are not compared: they carry wall-clock times. A crashed run or a
# failed build exits non-zero; a difference does not. It is a report, not
# a gate.
set -euo pipefail

if [[ $# -ne 1 ]]; then
	echo "usage: bash scripts/output-identity.sh PARENT" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
rev=$(git rev-parse --verify "$1^{commit}")

out=$root/.bench_build/identity/runs
src=$root/.bench_build/identity/parent
rm -rf "$out" "$src"
mkdir -p "$out" "$src"
git archive "$rev" | tar -x -C "$src"

# run SIDE NAME CMD... runs one step, its output in SIDE's log/NAME.log.
run() {
	local side=$1 name=$2
	shift 2
	"$@" >"$out/$side/log/$name.log" 2>&1 || {
		echo "output-identity: $side: $name failed (exit $?), see $out/$side/log/$name.log" >&2
		exit 1
	}
}

for side in parent change; do
	tree=$root
	[[ $side == parent ]] && tree=$src
	dir=$out/$side
	mkdir -p "$dir/bin" "$dir/log" "$dir/eco"
	echo "output-identity: $side: building" >&2
	(cd "$tree" && go build -o "$dir/bin/crp" ./cmd/crp && go build -o "$dir/bin/benchgen" ./cmd/benchgen)
	crp=$dir/bin/crp benchgen=$dir/bin/benchgen

	run "$side" gen-0.004 "$benchgen" -out "$dir/in/0.004" -scale 0.004
	run "$side" gen-0.02 "$benchgen" -out "$dir/in/0.02" -scale 0.02
	run "$side" gen-0.05 "$benchgen" -out "$dir/in/0.05" -scale 0.05 -circuit crp_test7
	for in in "$dir"/in/*/*.def; do
		scale=$(basename "$(dirname "$in")") name=$(basename "$in" .def)
		mkdir -p "$dir/out/$scale"
		echo "output-identity: $side: $name@$scale" >&2
		run "$side" "$name@$scale" "$crp" -lef "${in%.def}.lef" -def "$in" -k 10 \
			-out "$dir/out/$scale/$name.def" -guide "$dir/out/$scale/$name.guide"
	done

	echo "output-identity: $side: checkpoint and ECO on crp_test7@0.004" >&2
	in=$dir/in/0.004/crp_test7
	run "$side" ckpt "$crp" -lef "$in.lef" -def "$in.def" -k 10 -checkpoint-dir "$dir/ckpt" \
		-out "$dir/out/ckpt.def" -guide "$dir/out/ckpt.guide"
	run "$side" eco-delta "$benchgen" -scale 0.004 -circuit crp_test7 -eco-delta "$dir/eco/edit.json" \
		-eco-def "$dir/out/ckpt.def" -eco-moves 16
	run "$side" eco "$crp" -lef "$in.lef" -def "$in.def" -k 10 -eco-from "$dir/ckpt" \
		-eco-delta "$dir/eco/edit.json" -out "$dir/eco/eco.def" -guide "$dir/eco/eco.guide"
done

files=0 differ=0 inputs=0
while read -r f; do
	files=$((files + 1))
	a=$out/parent/$f b=$out/change/$f
	if [[ ! -e $a ]]; then
		echo "only in change: $f"
	elif [[ ! -e $b ]]; then
		echo "only in parent: $f"
	elif cmp -s "$a" "$b"; then
		continue
	else
		echo "differs: $f"
	fi
	differ=$((differ + 1))
	case $f in in/* | eco/edit.json) inputs=$((inputs + 1)) ;; esac
done < <(cd "$out" && find parent change -type f ! -path '*/bin/*' ! -path '*/log/*' | sed 's|^[^/]*/||' | sort -u)
echo "output-identity: parent ${rev:0:12} vs working tree: $files files, $differ differ ($inputs of them inputs)"
