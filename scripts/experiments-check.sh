#!/usr/bin/env bash
# Regenerates Tables II and III at scale 0.02 and compares them with the
# blocks EXPERIMENTS.md records. Both tables are deterministic, so any
# differing row is drift: the script lists each one and exits 1. Run from
# the repository root:
#
#   bash scripts/experiments-check.sh
#
# The sweep behind Table III takes about two minutes on a 2-CPU host.
set -euo pipefail

doc=EXPERIMENTS.md
got=$(go run ./cmd/experiments -table2 -table3 -scale 0.02 -q)

# block prints the first fenced block after the markdown heading "## $1 ".
block() {
	awk -v h="## $1 " '
		index($0, h) == 1 { in_sec = 1; next }
		in_sec && /^```/ { if (fence) exit; fence = 1; next }
		fence { print }
	' "$doc"
}

status=0
for table in "Table II" "Table III"; do
	want=$(block "$table")
	if [[ -z "$want" ]]; then
		echo "experiments-check: no $table block in $doc" >&2
		exit 2
	fi
	# The regenerated rows: the recorded block's header line, then as many
	# lines as the block has.
	header=$(head -n 1 <<<"$want")
	rows=$(grep -c '' <<<"$want")
	have=$(grep -F -x -A "$((rows - 1))" -- "$header" <<<"$got" | head -n "$rows" || true)
	if [[ "$have" == "$want" ]]; then
		echo "experiments-check: $table matches $doc"
		continue
	fi
	status=1
	echo "experiments-check: $table differs from $doc (- recorded, + regenerated):" >&2
	diff <(echo "$want") <(echo "$have") | grep '^[<>]' | sed 's/^</-/; s/^>/+/' >&2 || true
done
exit "$status"
