#!/bin/sh
# Resume-hop driver for the chaos legs of `asyncolor check`.
#
# usage: chaos_hops.sh EXE NAME SEED RATE MAX_HOPS REFERENCE [CHECK-ARGS...]
#
# Runs `EXE check CHECK-ARGS` with the fault injector armed, a checkpoint
# and a spill directory, both under the fresh work directory NAME.w
# (CHECK-ARGS sets the checkpoint interval and the spill threshold).
# Nothing is retried, so the first injected fault truncates a hop (exit 0
# with a `truncating run` diagnostic) or ends it without a report (exit 2).  The next hop resumes from the last good checkpoint, or starts
# afresh if none was saved yet.  Hop h draws its faults from seed SEED + h:
# fault counters live in the process, so reusing a seed would replay the
# same fault at the same operation forever.
#
# Passes iff a hop completes within MAX_HOPS hops, at least one hop was
# truncated, and the completing hop's stdout equals REFERENCE byte for
# byte.  The completing hop's stdout is left in NAME.out and every hop's
# stderr, in order, in NAME.err.
set -u
[ $# -ge 6 ] || {
  echo "usage: $0 EXE NAME SEED RATE MAX_HOPS REFERENCE [CHECK-ARGS...]" >&2
  exit 2
}
exe=$1 name=$2 seed=$3 rate=$4 max_hops=$5 ref=$6
shift 6
case $exe in */*) ;; *) exe=./$exe ;; esac
work=$name.w
ckpt=$work/c.ckpt
rm -rf "$work"
mkdir "$work"
: > "$name.err"
hop=0
truncated=0
while [ "$hop" -lt "$max_hops" ]; do
  if [ -e "$ckpt" ] || [ -e "$ckpt.1" ]; then
    from="--resume $ckpt"
  else
    from=
  fi
  # $from is empty or two words: left unquoted on purpose.
  "$exe" check "$@" $from --chaos "seed:$((seed + hop)),rate:$rate" \
    --checkpoint "$ckpt" --spill-dir "$work/spill.d" \
    > "$name.out" 2> "$work/hop.err"
  rc=$?
  echo "== hop $hop (exit $rc) ==" >> "$name.err"
  cat "$work/hop.err" >> "$name.err"
  hop=$((hop + 1))
  if [ "$rc" -eq 2 ]; then
    grep -q '^io: .*; no report' "$work/hop.err" || {
      echo "$name: hop $((hop - 1)) exited 2 without an io: diagnostic" >&2
      cat "$work/hop.err" >&2
      exit 1
    }
    truncated=$((truncated + 1))
  elif [ "$rc" -eq 0 ] && grep -q 'truncating run' "$work/hop.err"; then
    truncated=$((truncated + 1))
  elif [ "$rc" -eq 0 ]; then
    if [ "$truncated" -eq 0 ]; then
      echo "$name: no hop was truncated; the leg never left the fault-free path" >&2
      cat "$name.err" >&2
      exit 1
    fi
    cmp -s "$ref" "$name.out" || {
      echo "$name: resumed report diverged from the fault-free one" >&2
      diff "$ref" "$name.out" >&2
      exit 1
    }
    echo "$name: fault-free report after $hop hops ($truncated truncated)"
    exit 0
  else
    echo "$name: hop $((hop - 1)) exited $rc" >&2
    cat "$work/hop.err" >&2
    exit 1
  fi
done
echo "$name: no hop completed within $max_hops hops" >&2
cat "$name.err" >&2
exit 1
