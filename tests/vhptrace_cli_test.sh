#!/usr/bin/env bash
# vhptrace CLI contract: a truncated or corrupt .vhprec must produce exit
# code 2 and a one-line "vhptrace: ..." error on stderr — never a crash, a
# hang, or a zero exit. Usage errors are exit 2 as well; divergence/gate
# breaches are exit 1 (covered by the C++ suites); clean runs exit 0.
#
# Usage: vhptrace_cli_test.sh <path-to-vhptrace>
set -u

VHPTRACE="${1:?usage: vhptrace_cli_test.sh <path-to-vhptrace>}"
TMPDIR="$(mktemp -d "${TMPDIR:-/tmp}/vhptrace_cli.XXXXXX")"
trap 'rm -rf "$TMPDIR"' EXIT

fails=0

# expect <want-status> <label> -- <argv...>
expect() {
  local want="$1" label="$2"
  shift 3
  local err status
  err="$("$@" 2>&1 >/dev/null)"
  status=$?
  if [ "$status" -ne "$want" ]; then
    echo "FAIL: $label: exit $status, want $want" >&2
    echo "      cmd: $*" >&2
    echo "      stderr: $err" >&2
    fails=$((fails + 1))
  else
    echo "ok: $label (exit $status)"
  fi
}

# expect_stderr <substring> <label> -- <argv...>
expect_stderr() {
  local want="$1" label="$2"
  shift 3
  local err
  err="$("$@" 2>&1 >/dev/null)"
  case "$err" in
    *"$want"*) echo "ok: $label (stderr mentions '$want')" ;;
    *)
      echo "FAIL: $label: stderr missing '$want'" >&2
      echo "      stderr: $err" >&2
      fails=$((fails + 1))
      ;;
  esac
}

# --- fixtures ---------------------------------------------------------------

GARBAGE="$TMPDIR/garbage.vhprec"
printf 'NOTAVHPRECFILE_WITH_SOME_PADDING' > "$GARBAGE"

EMPTY="$TMPDIR/empty.vhprec"
: > "$EMPTY"

MISSING="$TMPDIR/does_not_exist.vhprec"

# A JSONL recording whose frame numbers do not fit their fields (past 2^64
# and 2^32): a wrapping reader would show seq 1, node 1 and exit 0.
OVERFLOW="$TMPDIR/overflow.jsonl"
{
  printf '%s\n' '{"format":"vhp-recording","version":1,"side":"hw","frames":1,"tags":{}}'
  printf '%s\n' '{"seq":18446744073709551617,"node":4294967297,"port":"data","dir":"tx","type":5,"hw_cycle":1,"board_tick":0,"wall_ns":1,"size":0,"digest":0,"payload":""}'
} > "$OVERFLOW"

# A real recording, produced by the vhp library itself: run the recorded
# smoke fixture generator if present, else fall back to write/truncate via
# the inspect path being exercised on the corrupt files only.
VALID="$TMPDIR/valid.vhprec"
HAVE_VALID=0
GEN="$(dirname "$VHPTRACE")/../bench/fabric_scale"
if [ -x "$GEN" ]; then
  if (cd "$TMPDIR" && "$GEN" --quick --record "$TMPDIR/smoke" \
        >/dev/null 2>&1); then
    if [ -f "$TMPDIR/smoke.hw.vhprec" ]; then
      cp "$TMPDIR/smoke.hw.vhprec" "$VALID"
      HAVE_VALID=1
    fi
  fi
fi

# --- corrupt/truncated inputs: exit 2, one-line error -----------------------

expect 2 "no arguments is a usage error"          -- "$VHPTRACE"
expect 2 "unknown command is a usage error"       -- "$VHPTRACE" frobnicate
expect 2 "inspect on missing file"                -- "$VHPTRACE" inspect "$MISSING"
expect 2 "inspect on garbage magic"               -- "$VHPTRACE" inspect "$GARBAGE"
expect 2 "inspect on empty file"                  -- "$VHPTRACE" inspect "$EMPTY"
expect 2 "stats on garbage magic"                 -- "$VHPTRACE" stats "$GARBAGE"
expect 2 "timeline on garbage magic"              -- "$VHPTRACE" timeline "$GARBAGE"
expect 2 "critical on garbage magic"              -- "$VHPTRACE" critical "$GARBAGE"
expect 2 "inspect on out-of-range JSONL numbers"  -- "$VHPTRACE" inspect "$OVERFLOW"
expect_stderr "vhptrace:" "error goes to stderr prefixed" -- "$VHPTRACE" inspect "$GARBAGE"
expect_stderr '"seq"' "out-of-range error names the field" -- "$VHPTRACE" inspect "$OVERFLOW"

if [ "$HAVE_VALID" -eq 1 ]; then
  # Truncation of a genuine recording must be detected, not misparsed.
  TRUNC="$TMPDIR/trunc.vhprec"
  size=$(wc -c < "$VALID")
  head -c "$((size / 2))" "$VALID" > "$TRUNC"
  expect 2 "inspect on truncated recording"       -- "$VHPTRACE" inspect "$TRUNC"

  # Trailing garbage after the last frame is corruption, not slack.
  TRAIL="$TMPDIR/trailing.vhprec"
  cp "$VALID" "$TRAIL"
  printf 'JUNKJUNKJUNK' >> "$TRAIL"
  expect 2 "inspect on trailing bytes"            -- "$VHPTRACE" inspect "$TRAIL"

  # --- clean runs exit 0 ----------------------------------------------------
  expect 0 "inspect on a valid recording"         -- "$VHPTRACE" inspect "$VALID"
  expect 0 "stats on a valid recording"           -- "$VHPTRACE" stats "$VALID"
  expect 0 "timeline on a valid recording"        -- "$VHPTRACE" timeline "$VALID"
  expect 0 "critical on a valid recording"        -- "$VHPTRACE" critical "$VALID"
  expect 2 "bad --node argument is a usage error" -- "$VHPTRACE" inspect --node banana "$VALID"
else
  echo "note: fabric_scale not found next to vhptrace; valid-recording cases skipped"
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails case(s) failed" >&2
  exit 1
fi
echo "all vhptrace CLI cases passed"
