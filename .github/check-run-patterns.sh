#!/usr/bin/env bash
# check-run-patterns.sh fails when a CI test selector selects nothing.
#
# `go test -run X` exits 0 when X matches no test, so a deleted or renamed
# test leaves a step that silently runs nothing. For every line of the
# workflow of the form
#
#	go test ... -run '<p1|p2|...>' <pkgs>
#
# each alternative pi must list at least one Test or Fuzz function under
# `go test -list '<pi>' <pkgs>`. The pattern '^$' (run no tests, used
# beside -bench) is exempt. Run it from the repository root:
#
#	bash .github/check-run-patterns.sh .github/workflows/ci.yml
set -euo pipefail

workflow=${1:-.github/workflows/ci.yml}
status=0
while IFS= read -r line; do
	pattern=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
	[ "$pattern" = '^$' ] && continue
	pkgs=$(sed -E "s/.*-run '[^']*'//" <<<"$line" | tr ' ' '\n' | grep '^\.' || true)
	if [ -z "$pkgs" ]; then
		echo "no packages after -run '$pattern': $line"
		status=1
		continue
	fi
	IFS='|' read -ra alternatives <<<"$pattern"
	for alt in "${alternatives[@]}"; do
		# shellcheck disable=SC2086 # pkgs is a word list
		if ! listed=$(go test -list "$alt" $pkgs </dev/null); then
			echo "go test -list '$alt' failed in" $pkgs
			status=1
		elif ! grep -qE '^(Test|Fuzz)' <<<"$listed"; then
			echo "-run alternative '$alt' selects no test in" $pkgs
			status=1
		fi
	done
done < <(grep -E "go test .*-run '[^']*'" "$workflow")
exit $status
