#!/bin/sh
# No second copy: fails when a window of 6 consecutive lines occurs at
# two places in the tracked lib/ sources (.ml), in one file or in two.
# Lines are compared with whitespace runs collapsed and ends trimmed, and
# every line of a window must be longer than 3 characters, so blank
# lines, lone `in`s and closing brackets never make a window. Prints one
# line per pair of files: where their first shared window starts, and how
# many shared windows they have. Read-only. Run from the repository root.
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
    pair = first[key] " and " FILENAME
    if (!(pair in count)) {
      where[pair] = first[key] ":" first_line[key] " and " FILENAME ":" start
      order[++pairs] = pair
    }
    count[pair]++
  }
  END {
    for (p = 1; p <= pairs; p++)
      printf "%s: %d shared %d-line windows\n", where[order[p]], count[order[p]], w
    exit pairs > 0
  }' $(git ls-files 'lib/*.ml')
