#!/bin/sh
# Usage: scripts/gate.sh PKG REGEX [FLAGS...]
#
# Runs `go test FLAGS -run REGEX PKG`, but first fails if any |-separated
# name in REGEX is not a test of PKG (scripts/tests-exist.sh): a renamed
# or deleted test would otherwise disarm its gate silently, since a -run
# regex that matches nothing passes. $GO overrides the go command.
set -eu
sh "$(dirname "$0")/tests-exist.sh" "$1" "$2"
pkg=$1 re=$2
shift 2
exec ${GO:-go} test "$@" -run "$re" "$pkg"
