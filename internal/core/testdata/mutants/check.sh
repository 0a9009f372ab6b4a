#!/bin/sh
# check.sh applies each mutant in this directory to a fresh copy of the
# repository's files and requires the tests its "Kill:" line names, in the
# package its "Package:" line names, to fail there. A mutant that survives,
# or that no longer applies, fails the check. Each patch reverts one fix or
# guard; the text above its diff says which, and why a test must see it.
#
# Run from anywhere inside the repository: internal/core/testdata/mutants/check.sh
# Give patch files as arguments to check only those.
set -u
root=$(git rev-parse --show-toplevel) || exit 2
dir="$root/internal/core/testdata/mutants"
[ $# -gt 0 ] || set -- "$dir"/*.patch
status=0
for patch in "$@"; do
	name=$(basename "$patch" .patch)
	pkg=$(sed -n 's/^Package: //p' "$patch")
	kill=$(sed -n 's/^Kill: //p' "$patch")
	tmp=$(mktemp -d)
	(cd "$root" && git ls-files -z --cached --others --exclude-standard | xargs -0 tar -cf - 2>/dev/null) | tar -xf - -C "$tmp"
	if ! (cd "$tmp" && git apply "$patch"); then
		echo "FAIL $name: the patch no longer applies"
		status=1
	elif (cd "$tmp" && go test -count=1 "$pkg" -run "$kill" >"$tmp/test.log" 2>&1); then
		echo "FAIL $name: survived $kill in $pkg"
		status=1
	elif ! grep -q -- '--- FAIL' "$tmp/test.log"; then
		echo "FAIL $name: no test failed; the mutant does not build, or the run broke:"
		tail -n 20 "$tmp/test.log"
		status=1
	else
		echo "ok   $name: killed by $(grep -- '--- FAIL' "$tmp/test.log" | sed 's/^ *--- FAIL: //; s/ (.*//' | paste -sd ' ')"
	fi
	rm -rf "$tmp"
done
exit $status
