#!/usr/bin/env bash
# Doc drift gate: every --flag a documentation code block passes to one
# of this repo's binaries must be accepted by that binary, as judged by
# its usage text.  Docs rot one renamed flag at a time; this keeps every
# worked example in the handbook runnable.
#
#   tools/check_doc_flags.sh [build-dir] [doc.md ...]
#
# Mechanics: fenced code blocks are extracted, backslash continuations
# are joined, and each --flag is attributed to the nearest preceding
# token whose basename names a built binary (build/examples or
# build/bench), resetting at pipes and command separators.  "=value"
# suffixes are stripped.  Usage text comes from running the binary with
# --help (every CLI here prints usage and exits nonzero on it).
set -u

build=${1:-build}
if [ $# -gt 0 ]; then shift; fi
docs=("$@")
if [ ${#docs[@]} -eq 0 ]; then
  docs=(README.md docs/COORDINATOR.md docs/PIPELINE.md docs/TUTORIAL.md)
fi

declare -A bin_path usage_cache
for d in examples bench; do
  [ -d "$build/$d" ] || continue
  for f in "$build/$d"/*; do
    if [ -f "$f" ] && [ -x "$f" ]; then
      bin_path[$(basename "$f")]=$f
    fi
  done
done
if [ ${#bin_path[@]} -eq 0 ]; then
  echo "check_doc_flags: no binaries under $build/{examples,bench}" \
       "-- build first" >&2
  exit 2
fi

usage_of() {
  local name=$1
  if [ -z "${usage_cache[$name]:-}" ]; then
    usage_cache[$name]=$("${bin_path[$name]}" --help 2>&1 || true)
  fi
  printf '%s' "${usage_cache[$name]}"
}

fail=0
for doc in "${docs[@]}"; do
  if [ ! -f "$doc" ]; then
    echo "check_doc_flags: missing doc $doc" >&2
    fail=1
    continue
  fi
  # Fenced blocks only, continuations joined into one logical line.
  joined=$(awk '/^[[:space:]]*```/ { fenced = !fenced; next } fenced' \
             "$doc" | sed -e ':a' -e '/\\$/{N; s/\\\n//; ba}')
  while IFS= read -r line; do
    bin=""
    for tok in $line; do
      case "$tok" in
        '|' | '||' | '&&' | ';') bin="" ; continue ;;
      esac
      base=${tok##*/}
      if [ -n "$base" ] && [ -n "${bin_path[$base]:-}" ]; then
        bin=$base
        continue
      fi
      case "$tok" in
        --*)
          [ -n "$bin" ] || continue
          flag=${tok%%=*}
          # Word-boundary match against the usage text: "[--bench ...]"
          # must resolve, and "--dead-ms" must not pass for "--dead".
          if ! usage_of "$bin" | grep -Eq -- "(^|[^-[:alnum:]])${flag}([^-[:alnum:]]|$)"; then
            echo "$doc: $bin does not accept $flag" >&2
            echo "    in: $line" >&2
            fail=1
          fi
          ;;
      esac
    done
  done <<< "$joined"
done

if [ "$fail" -ne 0 ]; then
  echo "check_doc_flags: documentation uses flags the binaries reject" >&2
  exit 1
fi
echo "check_doc_flags: all documented flags accepted"
