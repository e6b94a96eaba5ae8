#!/usr/bin/env bash
# Lists the internal/ functions that no production run reaches and checks
# the list against testdata/unreached.txt in both directions.
#
#   bash scripts/unreached.sh        # check: exit 1 on any difference
#   bash scripts/unreached.sh -w     # rewrite the list, keeping reasons
#
# The production set is what CI runs outside the unit tests: the four
# examples, two nicekv feature mixes, the benchmark's smoke run, every
# nicebench registry name at smoke size, and the controller-biased
# 8-schedule and stock 50-schedule chaos sweeps. Every binary is built
# with -cover -coverpkg over the whole module, so a function counts as
# reached if any of these runs executed one of its statements. Each run
# keeps its own exit-code gate: a chaos violation or a failed nicekv op
# fails the script before the list is compared.
#
# A line of the list is `file Func  # reason`, with covdata's function
# names (`*Recv.Method` for a pointer receiver). A function that becomes
# unreached must be reached again, deleted, or listed with a reason; a
# listed function that a run now reaches must leave the list. Both fail
# the check.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
list="$root/testdata/unreached.txt"
write=false
case "${1:-}" in
-w) write=true ;;
"") ;;
*)
	echo "usage: $0 [-w]" >&2
	exit 2
	;;
esac

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bin="$work/bin"
cov="$work/cov"
mkdir -p "$bin" "$cov"
cd "$root"

go build -cover -coverpkg=./... -o "$bin/" ./cmd/nicebench ./cmd/nicekv \
	./examples/quickstart ./examples/hotspot ./examples/faulttolerance ./examples/ycsb
go build -C benchmark -cover -coverpkg=repro/... -o "$bin/benchmark" .

n=0
run() { # run <binary> <args...>: one covered run into its own directory
	n=$((n + 1))
	mkdir "$cov/$n"
	GOCOVERDIR="$cov/$n" "$bin/$1" "${@:2}"
}

for ex in quickstart hotspot faulttolerance ycsb; do
	run "$ex" > /dev/null
done
nicekv() {
	run nicekv "$@" > "$work/nicekv.out"
	out=$(< "$work/nicekv.out")
	if ! grep -Eq '^put .*failed=0$' <<<"$out" || ! grep -Eq '^get .*failed=0$' <<<"$out"; then
		echo "nicekv $*:" >&2
		echo "$out" >&2
		exit 1
	fi
}
nicekv -nodes 5 -ops 50 -lb -cache -durable -groupcommit
nicekv -nodes 6 -ops 100 -harmonia -durable -batchwindow 100us -coalesce
run benchmark -smoke > /dev/null
# The chaos sweeps print their tables; either exits non-zero on any
# invariant violation or determinism mismatch.
run nicebench -experiment chaos -chaos-schedules 8 -chaos-ctrl 2 -out-dir ""
run nicebench -experiment chaos -chaos-schedules 50 -out-dir ""
n=$((n + 1))
mkdir "$cov/$n"
go test -cover -coverpkg=./... -short -run 'TestRegistryRunsEveryName' ./cmd/nicebench \
	-args -test.gocoverdir="$cov/$n" > /dev/null

dirs=$(ls -d "$cov"/* | paste -sd,)
# covdata prints `repro/internal/x/f.go:LINE:  Func  PCT%`.
go tool covdata func -i="$dirs" -pkg=repro/internal/... |
	awk '$NF == "0.0%" { f = $1; sub(/^repro\//, "", f); sub(/:[0-9]+:$/, "", f); print f, $2 }' |
	sort -u > "$work/now"
go tool covdata textfmt -i="$dirs" -pkg=repro/internal/... -o "$work/profile"
# A block may appear once per input; it ran if any copy counted it.
stmts=$(awk 'NR > 1 { n[$1] = $2; if ($3 > 0) hit[$1] = 1 }
	END { for (b in n) { total += n[b]; if (!hit[b]) miss += n[b] }; printf "%d of %d", miss, total }' "$work/profile")
echo "unreached: $(wc -l < "$work/now") functions, $stmts internal/ statements"

# The list without its comments and reasons, to diff against this run.
grep -v '^#' "$list" | sed 's/ *#.*//' | sort -u > "$work/listed" || true
if $write; then
	{
		grep '^#' "$list" || true
		while read -r file fn; do
			reason=$(awk -v k="$file $fn " 'index($0, k) == 1 { sub(/^[^#]*/, ""); print; exit }' "$list")
			printf '%s %s  %s\n' "$file" "$fn" "${reason:-#}"
		done < "$work/now"
	} > "$work/new"
	mv "$work/new" "$list"
	echo "wrote $list"
fi
status=0
if ! diff -u "$work/listed" "$work/now" > "$work/diff"; then
	echo "testdata/unreached.txt differs from this run (+ newly unreached, - now reached):" >&2
	grep '^[-+][^-+]' "$work/diff" >&2
	status=1
fi
if grep -v '^#' "$list" | grep -Ev '# *[^ ]' >&2; then
	echo "the lines above carry no reason" >&2
	status=1
fi
exit $status
