#!/usr/bin/env bash
# Example CLI contract: --help prints the usage line on stdout and exits 0;
# an unknown option, a malformed positional or an invalid knob prints the
# usage line on stderr and exits 2 — never an uncaught exception (exit 134).
# Every such case stops before a simulation starts. One short run
# (router_cosim 1000 8, ~0.1 s) checks that --trace-json writes a Chrome
# trace that parses and shows a barrier per sync, at least one simulate span
# on the master row per barrier, a dev_read, an RTOS thread and a CLOCK
# frame, and that its metrics carry nonzero stall buckets
# (cosim.wall.simulate_ns and cosim.wall.ack_wait_ns). Another records a
# run with the default flags, which must write the hw file and the one
# node's board file, and replays its hw side, which must report "replay
# ok".
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

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
"$ROUTER_COSIM" 1000 8 --trace-json "$workdir/run.trace.json" \
  --metrics-json "$workdir/run.metrics.json" > "$workdir/run.out" 2>&1
status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL: router_cosim 1000 8 --trace-json: exit $status" >&2
  cat "$workdir/run.out" >&2
  fails=$((fails + 1))
elif ! python3 - "$workdir" <<'PY'
import json, re, sys
workdir = sys.argv[1]
events = json.load(open(f"{workdir}/run.trace.json"))["traceEvents"]
names = [e["name"] for e in events if e["ph"] != "M"]
master_simulate = sum(1 for e in events if e["ph"] == "X" and
                      e["pid"] == 1 and e["name"] == "simulate")
gauges = json.load(open(f"{workdir}/run.metrics.json"))["gauges"]
syncs = int(re.search(r"sync round trips\s+(\d+)",
                      open(f"{workdir}/run.out").read()).group(1))
checks = {
    "one barrier span per sync": names.count("barrier") == syncs > 0,
    "a master simulate span per barrier": master_simulate >= syncs > 0,
    "nonzero cosim.wall.simulate_ns":
        gauges.get("cosim.wall.simulate_ns", 0) > 0,
    "nonzero cosim.wall.ack_wait_ns":
        gauges.get("cosim.wall.ack_wait_ns", 0) > 0,
    "a dev_read span": "dev_read" in names,
    "an RTOS thread slice": "checksum_app" in names,
    "a CLOCK frame": any(n.startswith("clock.") for n in names),
}
for what, ok in checks.items():
    print(("ok: " if ok else "FAIL: ") + "router_cosim run has " + what,
          file=sys.stdout if ok else sys.stderr)
sys.exit(0 if all(checks.values()) else 1)
PY
then
  fails=$((fails + 1))
fi

# Record with the default flags (observability on, so the CLOCK traffic is
# round-stamped), then replay the hw side alone against the recording.
"$ROUTER_COSIM" 1000 8 --record "$workdir/rec" \
  --trace-json "$workdir/rec.trace.json" \
  --metrics-json "$workdir/rec.metrics.json" > "$workdir/record.out" 2>&1 &&
  "$ROUTER_COSIM" --replay "$workdir/rec.hw.vhprec" > "$workdir/replay.out" 2>&1
status=$?
if [ "$status" -ne 0 ] || ! grep -q "replay ok" "$workdir/replay.out"; then
  echo "FAIL: router_cosim --record then --replay: exit $status" >&2
  cat "$workdir/record.out" "$workdir/replay.out" >&2 2>/dev/null
  fails=$((fails + 1))
else
  echo "ok: router_cosim default recording replays"
fi
# A session is a one-node fabric: its board file is named after node0.
if [ ! -s "$workdir/rec.node0.board.vhprec" ]; then
  echo "FAIL: router_cosim --record wrote no rec.node0.board.vhprec" >&2
  ls "$workdir" >&2
  fails=$((fails + 1))
else
  echo "ok: router_cosim --record writes rec.node0.board.vhprec"
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails case(s) failed" >&2
  exit 1
fi
echo "all example CLI cases passed"
