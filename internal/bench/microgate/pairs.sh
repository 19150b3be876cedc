#!/bin/sh
# Runs the micro suite as ten parent/change pairs per row on one host, for
# microgate:
#
#	go test -c -o parent.test ./internal/bench   # in the parent's checkout
#	go test -c -o change.test ./internal/bench   # in the change's checkout
#	sh internal/bench/microgate/pairs.sh parent.test change.test runs
#	go run ./internal/bench/microgate runs/parent.txt runs/change.txt
#
# A pair is one row run in two fresh processes back to back, one per side,
# alternating which side goes first. On a shared host a row's ns/op drifts
# by up to 1.5x within minutes, and Paired's spread test uses the parent's
# interquartile range, so a row's ten pairs must sit close together in
# time: rows are taken in groups, all pairs of a group before the next.
# A group is the rows sharing their first two name elements (htm/access,
# sim/dispatch, detect/join, ...), which puts every two rows Gate compares
# in the same window too. Every row runs at -benchtime 200ms: all 26 rows
# take about 3 minutes on 2 vCPUs.
set -eu
parent=$(realpath "$1")
change=$(realpath "$2")
out=$3
mkdir -p "$out"
: >"$out/parent.txt"
: >"$out/change.txt"
rows=$("$change" -test.run '^$' -test.bench '^BenchmarkMicro$' -test.benchtime 1x |
	sed -n 's|^BenchmarkMicro/\([^[:space:]]*\)[[:space:]].*|\1|p' | sed 's|-[0-9]*$||')
run() {
	"$2" -test.run '^$' -test.bench "$3" -test.benchtime 200ms -test.timeout 10m >>"$out/$1.txt"
}
for group in $(echo "$rows" | cut -d/ -f1-2 | uniq); do
	for i in 1 2 3 4 5 6 7 8 9 10; do
		for row in $rows; do
			[ "$(echo "$row" | cut -d/ -f1-2)" = "$group" ] || continue
			pat="^BenchmarkMicro\$/^$(echo "$row" | sed 's|/|$/^|g')\$"
			if [ $((i % 2)) -eq 1 ]; then
				run parent "$parent" "$pat"
				run change "$change" "$pat"
			else
				run change "$change" "$pat"
				run parent "$parent" "$pat"
			fi
		done
	done
done
