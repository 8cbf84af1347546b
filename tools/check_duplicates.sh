#!/bin/sh
# No second copy: fails when a window of 6 consecutive lines occurs at
# two places in the tracked lib/ sources (.ml), in one file or in two.
# Lines are compared with whitespace runs collapsed and ends trimmed, and
# every line of a window must be longer than 3 characters, so blank
# lines, lone `in`s and closing brackets never make a window. Prints one
# line per maximal shared run of lines: where it starts in both places,
# and how many lines it spans. Read-only. Run from the repository root.
set -eu
# shellcheck disable=SC2046
awk -v w=6 '
  FNR == 1 { run = 0 }
  {
    line = $0
    gsub(/[ \t]+/, " ", line)
    sub(/^ /, "", line)
    sub(/ $/, "", line)
    buf[FNR % w] = line
    run = length(line) > 3 ? run + 1 : 0
    if (run < w) next
    start = FNR - w + 1
    key = buf[start % w]
    for (i = start + 1; i <= FNR; i++) key = key "\034" buf[i % w]
    if (!(key in first)) {
      first[key] = FILENAME
      first_line[key] = start
      next
    }
    # a window may not repeat one it overlaps
    if (first[key] == FILENAME && start - first_line[key] < w) next
    # a window one line on from the last window of a run extends it
    here = first[key] SUBSEP first_line[key] SUBSEP FILENAME SUBSEP start
    prev = first[key] SUBSEP (first_line[key] - 1) SUBSEP FILENAME SUBSEP (start - 1)
    if (prev in run_of) {
      id = run_of[prev]
      delete run_of[prev]
    } else {
      id = ++runs
      where[id] = first[key] ":" first_line[key] " and " FILENAME ":" start
    }
    windows[id]++
    run_of[here] = id
  }
  END {
    for (r = 1; r <= runs; r++)
      printf "%s: %d shared lines\n", where[r], windows[r] + w - 1
    exit runs > 0
  }' $(git ls-files 'lib/*.ml')
