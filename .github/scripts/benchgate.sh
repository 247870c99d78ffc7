#!/usr/bin/env bash
# Wall-clock gate over BENCHMARK.json: runs every workload with
# `bash bench/run.sh -workload W` on two checkouts, in three alternating
# pairs (base first in odd pairs, head first in even ones), takes each
# side's median of every end-to-end metric and prints the table.
#
#   bash .github/scripts/benchgate.sh BASE_DIR HEAD_DIR
#
# A metric whose base runs spread (inter-quartile range over the median)
# wider than its bound is "unresolved" and does not fail the gate, unless
# every head run beats every base run, which reads "ok". The gate fails
# when a resolved head median is worse than the base's by more than the
# metric's bound in its "better" direction, or when a head run failed an
# operation or printed no result. Bounds are read from the base's
# BENCHMARK.json. Each run's last output line is kept as
# OUT_DIR/<side>-<workload>-<pair>.json and its stderr beside it as .err
# (OUT_DIR defaults to a new temporary directory); a failed run's stderr
# is printed. Needs jq.
set -euo pipefail
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
pairs=3
out=${OUT_DIR:-$(mktemp -d)}
mkdir -p "$out"
manifest="$base/BENCHMARK.json"

for w in $(jq -r '.workloads[].name' "$manifest"); do
  for i in $(seq 1 "$pairs"); do
    order="base head"
    [ $((i % 2)) = 0 ] && order="head base"
    for side in $order; do
      dir=$base
      [ "$side" = head ] && dir=$head
      run="$out/$side-$w-$i"
      echo "benchgate: $w pair $i $side" >&2
      if ! (cd "$dir" && bash bench/run.sh -workload "$w" 2> "$run.err" | tail -n 1) > "$run.json" ||
        ! jq -e '.failed == 0' "$run.json" > /dev/null 2>&1; then
        echo "benchgate: $w pair $i $side failed; its stderr:" >&2
        cat "$run.err" >&2
      fi
    done
  done
done

# One record per run: {side, w, doc}; a run that printed no JSON is a
# document with failed = 1 and no metrics.
for f in "$out"/*-*-*.json; do
  name=$(basename "$f" .json)
  side=${name%%-*}
  w=${name#*-}
  w=${w%-*}
  jq -ce --arg side "$side" --arg w "$w" '{side: $side, w: $w, doc: .}' "$f" 2> /dev/null ||
    jq -nc --arg side "$side" --arg w "$w" '{side: $side, w: $w, doc: {failed: 1, metrics: {}}}'
done | jq -rs --slurpfile man "$manifest" '
  def pad($n): tostring | if length < $n then . + " " * ($n - length) else . end;
  def quantile($p): sort | if length == 0 then null
    else ((length - 1) * $p) as $x | ($x | floor) as $lo | ($x | ceil) as $hi
    | .[$lo] + (.[$hi] - .[$lo]) * ($x - $lo) end;
  def rel($b): if $b == 0 then (if . == 0 then 0 elif . > 0 then infinite else -infinite end)
    else . / ($b | fabs) end;
  . as $runs
  | [$man[0].workloads[].name as $w | $man[0].end_to_end[] as $e
     | [$runs[] | select(.side == "base" and .w == $w) | .doc.metrics[$e.name].value | numbers] as $bv
     | [$runs[] | select(.side == "head" and .w == $w) | .doc.metrics[$e.name].value | numbers] as $hv
     | ($bv | quantile(0.5)) as $b | ($hv | quantile(0.5)) as $h
     | (if $b == null or $h == null then null else $h - $b | rel($b) end) as $rel
     | (if $b == null then null else ($bv | quantile(0.75)) - ($bv | quantile(0.25)) | rel($b) end) as $spread
     | (if $e.better == "lower" then 1 else -1 end) as $sign
     | {w: $w, m: $e.name, b: $b, h: $h, rel: $rel, bound: $e.bound,
        verdict: (if $h == null then "WORSE"
          elif $b == null then "unresolved"
          elif $spread > $e.bound and ($hv | map(. * $sign) | max) >= ($bv | map(. * $sign) | min) then "unresolved"
          elif $rel * $sign > $e.bound then "WORSE"
          else "ok" end)}]
  as $rows
  | [$runs[] | select(.side == "head" and (.doc.failed // 1) > 0) | .w] as $failed
  | def row: [(.[0] | pad(16)), (.[1] | pad(22)), (.[2] | pad(20)), (.[3] | pad(20)),
               (.[4] | pad(10)), (.[5] | pad(8)), .[6]] | join(" ");
    (["workload", "metric", "base median", "head median", "change", "bound", "verdict"] | row),
    ($rows[] | [.w, .m, (.b // "-"), (.h // "-"),
                (if .rel == null then "-" else .rel * 10000 | round / 10000 end), .bound, .verdict] | row),
    (if ($failed | length) > 0 then "failed operations on head: \($failed | unique | join(", "))" else empty end),
    (if ([$rows[] | select(.verdict == "WORSE")] | length) > 0 or ($failed | length) > 0
     then "benchgate: FAIL" else "benchgate: ok" end)
' | tee "$out/table.txt"
[ "$(tail -n 1 "$out/table.txt")" = "benchgate: ok" ]
