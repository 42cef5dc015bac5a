#!/usr/bin/env bash
# Fails when the compiler fuses a multiply and an add into one FMA
# instruction in a result-bearing package. Go may contract x*y + z into a
# fused multiply-add on arm64, ppc64le, s390x, riscv64 and loong64 (never
# on amd64), which rounds once instead of twice and moves loads, matrices
# and so every solver's result off amd64's bits. Wrapping the product in
# float64(...) forbids the fusion. Only report-only code is allowed by
# function name: RowEntropy (entropy telemetry) and CheckAliasRow (the
# chi-square binning of a distribution test).
#
# Usage: bash .github/nofma.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=(./internal/cost ./internal/stochmat ./internal/core ./internal/heuristics
	./internal/verify ./internal/ce ./internal/xrand ./internal/gen
	./internal/graph)
allow='^(RowEntropy|CheckAliasRow)$'

# enclosing_func FILE LINE prints the name of the top-level function whose
# body holds LINE. Inlined code keeps its own source position, so this
# names the function the fused expression is written in.
enclosing_func() {
	awk -v line="$2" 'NR > line { exit } /^func / { f = $0 } END { print f }' "$1" |
		sed -E 's/^func (\([^)]*\) )?([A-Za-z0-9_]+).*/\2/'
}

bad=0
for arch in arm64 ppc64le s390x riscv64 loong64; do
	asm=$(GOARCH=$arch go build -gcflags=-S "${pkgs[@]}" 2>&1)
	while read -r pos op; do
		[ -n "$pos" ] || continue
		file=${pos%:*}
		line=${pos##*:}
		fn=$(enclosing_func "$file" "$line")
		if [[ $fn =~ $allow ]]; then
			continue
		fi
		echo "$arch: $op at ${file#"$PWD"/}:$line in $fn: wrap the product in float64(...)"
		bad=1
	done < <(printf '%s\n' "$asm" |
		sed -nE 's/.*\(([^()]+\.go:[0-9]+)\)[[:space:]]+(F(N)?M(ADD|SUB)[DS]?)[[:space:]].*/\1 \2/p' |
		sort -u)
done
exit $bad
