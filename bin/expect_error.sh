#!/bin/sh
# expect_error.sh MESSAGE COMMAND [ARG]...
# Runs COMMAND and passes when it exits 124 (a clean Cmdliner error) and
# its stderr contains MESSAGE. Otherwise prints the command, its exit code
# and its stderr, and fails.
msg=$1
shift
err=$("$@" 2>&1 >/dev/null)
rc=$?
case $rc:$err in
  124:*"$msg"*) exit 0 ;;
esac
printf '%s\n  exit %d (expected 124), stderr (expected to contain "%s"):\n%s\n' \
  "$*" "$rc" "$msg" "$err" >&2
exit 1
