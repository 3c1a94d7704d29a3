#!/usr/bin/env bash
# Builds and runs the benchmark. Everything it writes stays below this
# directory: Go caches in .cache/, the binary in .build/, store
# directories in .work/, result and trace files in out/.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result.
#   run.sh --repeat N [--against DIR] [--seconds S] [--label L]
#       N runs of every workload with seeds 1..N, results in out/L/
#       (default L: "self"). With --against, DIR is another checkout of
#       the repository: each run is paired with one of DIR's build of the
#       system under THIS benchmark's code, alternating which side goes
#       first, results in out/against/; then the two sets are compared.
#   run.sh compare DIR_A DIR_B
#       one row per (metric, workload); exits 1 on any "regressed".
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The Go tool's caches, module cache and telemetry counters would
# otherwise go to $HOME.
export GOCACHE="$here/.cache/go-build" GOMODCACHE="$here/.cache/mod" GOPATH="$here/.cache/gopath" \
	XDG_CONFIG_HOME="$here/.cache/config" GOTOOLCHAIN=local

# build <benchmark source dir> <output binary>
build() { (cd "$1" && go build -o "$2" .); }

workloads="erasure read cluster"

case "${1:-}" in
compare)
	shift
	build "$here" "$here/.build/benchmark"
	exec "$here/.build/benchmark" compare --spec "$here/../BENCHMARK.json" "$@"
	;;
--repeat)
	n="$2"; shift 2
	against="" seconds="" label="self"
	while [ $# -gt 0 ]; do
		case "$1" in
		--against) against="$2" ;;
		--seconds) seconds="$2" ;;
		--label) label="$2" ;;
		*) echo "run.sh: unknown option $1" >&2; exit 2 ;;
		esac
		shift 2
	done
	if [ -z "$seconds" ]; then
		seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
	fi
	build "$here" "$here/.build/benchmark"
	sides=("$label")
	if [ -n "$against" ]; then
		# The other side: the same benchmark code against DIR's system.
		rm -rf "$here/.build/against" && mkdir -p "$here/.build/against"
		cp "$here"/*.go "$here/.build/against/"
		printf 'module github.com/seldel/seldel/benchmark\n\ngo 1.24\n\nrequire github.com/seldel/seldel v0.0.0\n\nreplace github.com/seldel/seldel => %s\n' \
			"$(cd "$against" && pwd)" >"$here/.build/against/go.mod"
		build "$here/.build/against" "$here/.build/benchmark-against"
		sides=("$label" against)
	fi
	one() { # side workload seed
		bin="$here/.build/benchmark"
		[ "$1" = against ] && bin="$here/.build/benchmark-against"
		"$bin" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 --dir "$here" \
			--out "$here/out/$1/$2-$3.json" >/dev/null
	}
	for seed in $(seq 1 "$n"); do
		for w in $workloads; do
			if [ ${#sides[@]} -eq 2 ] && [ $((seed % 2)) -eq 0 ]; then
				one "${sides[1]}" "$w" "$seed"; one "${sides[0]}" "$w" "$seed"
			else
				for s in "${sides[@]}"; do one "$s" "$w" "$seed"; done
			fi
			echo "seed $seed $w done" >&2
		done
	done
	if [ ${#sides[@]} -eq 2 ]; then
		exec "$here/.build/benchmark" compare --spec "$here/../BENCHMARK.json" "$here/out/against" "$here/out/$label"
	fi
	;;
*)
	build "$here" "$here/.build/benchmark"
	exec "$here/.build/benchmark" --dir "$here" "$@"
	;;
esac
