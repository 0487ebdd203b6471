#!/usr/bin/env bash
# Example CLI contract: --help prints the usage line on stdout and exits 0;
# an unknown option, a malformed positional or an invalid knob prints the
# usage line on stderr and exits 2 — never an uncaught exception (exit 134).
# Every case stops before a simulation starts.
#
# Usage: examples_cli_test.sh <path-to-router_cosim> <path-to-router_fabric>
set -u

ROUTER_COSIM="${1:?usage: examples_cli_test.sh <router_cosim> <router_fabric>}"
ROUTER_FABRIC="${2:?usage: examples_cli_test.sh <router_cosim> <router_fabric>}"

fails=0

# expect <want-status> <stream> <label> -- <argv...>: the exit status must be
# <want-status> and <stream> (stdout or stderr) must carry the usage line.
expect() {
  local want="$1" stream="$2" label="$3"
  shift 4
  local out err status text
  out="$("$@" 2>/dev/null)"
  status=$?
  err="$("$@" 2>&1 >/dev/null)"
  if [ "$stream" = stdout ]; then text="$out"; else text="$err"; fi
  if [ "$status" -ne "$want" ]; then
    echo "FAIL: $label: exit $status, want $want" >&2
    echo "      cmd: $*" >&2
    echo "      stderr: $err" >&2
    fails=$((fails + 1))
  elif [[ "$text" != *"usage: "* ]]; then
    echo "FAIL: $label: no usage line on $stream" >&2
    echo "      $stream: $text" >&2
    fails=$((fails + 1))
  else
    echo "ok: $label (exit $status)"
  fi
}

for bin in "$ROUTER_COSIM" "$ROUTER_FABRIC"; do
  name="$(basename "$bin")"
  expect 0 stdout "$name --help prints usage"          -- "$bin" --help
  expect 0 stdout "$name -h prints usage"              -- "$bin" -h
  expect 2 stderr "$name rejects an unknown option"    -- "$bin" --bogus
  expect 2 stderr "$name rejects an option after args" -- "$bin" 1000 100 --bogus
  expect 2 stderr "$name rejects a non-numeric t_sync" -- "$bin" fast
  expect 2 stderr "$name rejects t_sync 0"             -- "$bin" 0
done

if [ "$fails" -ne 0 ]; then
  echo "$fails case(s) failed" >&2
  exit 1
fi
echo "all example CLI cases passed"
