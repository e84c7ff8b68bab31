#!/bin/sh
# Usage: scripts/tests-exist.sh PKG REGEX
#
# Fails unless every |-separated name in REGEX is a test of PKG (per
# `go test -list`). $GO overrides the go command.
set -eu
listed=$(${GO:-go} test -list "$2" "$1")
for name in $(echo "$2" | tr '|' ' '); do
	if ! echo "$listed" | grep -qx "$name"; then
		echo "tests-exist: $name is not a test in $1" >&2
		exit 1
	fi
done
