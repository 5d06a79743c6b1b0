# Shell helpers for the workflow's console entry point steps; each step
# sources this file from the repository root.

# expect_exit CODE NAME COMMAND...: run COMMAND with its stdout in
# $RUNNER_TEMP/NAME.out and its stderr in $RUNNER_TEMP/NAME.err, show both,
# and fail unless COMMAND exits with CODE.
expect_exit() {
  local want=$1 log="$RUNNER_TEMP/$2"
  shift 2
  local code=0
  "$@" > "$log.out" 2> "$log.err" || code=$?
  cat "$log.out" "$log.err"
  test "$code" -eq "$want"
}
