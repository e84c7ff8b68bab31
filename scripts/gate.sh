#!/bin/sh
# Usage: scripts/gate.sh PKG REGEX [FLAGS...]
#
# Runs `go test FLAGS -run REGEX PKG`, but first fails if any |-separated
# name in REGEX is not a test of PKG (per `go test -list`): a renamed or
# deleted test would otherwise disarm its gate silently, since a -run
# regex that matches nothing passes. $GO overrides the go command.
set -eu
GO=${GO:-go}
pkg=$1
re=$2
shift 2
listed=$($GO test -list "$re" "$pkg")
for name in $(echo "$re" | tr '|' ' '); do
	if ! echo "$listed" | grep -qx "$name"; then
		echo "gate: $name is not a test in $pkg" >&2
		exit 1
	fi
done
exec $GO test "$@" -run "$re" "$pkg"
