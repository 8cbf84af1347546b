#!/bin/sh
# No export without a caller: fails when a `val` in a lib/ interface is
# called by no tracked .ml or .mli outside its own module. A call is the
# qualified `Module.name`, or the bare word `name` in a file that opens
# the module (`open Module`, `Module.(...)`) or aliases it
# (`module M = Module`). Still a word grep: a bare name such a file uses
# for something else passes. Run from the repository root.
set -eu
status=0
for mli in $(git ls-files 'lib/*.mli'); do
  ml="${mli%i}"
  base=$(basename "$ml" .ml)
  module=$(printf '%s' "$base" | cut -c1 | tr a-z A-Z)$(printf '%s' "$base" | cut -c2-)
  path="([A-Z][A-Za-z0-9_']*\.)*$module"
  openers=$(git grep -lE \
    -e "open!? +$path([^A-Za-z0-9_'.]|\$)" \
    -e "module +[A-Z][A-Za-z0-9_']* *= *$path([^A-Za-z0-9_'.]|\$)" \
    -e "(^|[^A-Za-z0-9_'.])$path\.\(" -- '*.ml' '*.mli' ":!$mli" ":!$ml" \
    || true)
  for name in $(sed -n "s/^val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli"); do
    if git grep -qw -e "$module\.$name" -- '*.ml' '*.mli' ":!$mli" ":!$ml"; then
      continue
    fi
    # shellcheck disable=SC2086
    if [ -n "$openers" ] && git grep -qw -e "$name" -- $openers; then
      continue
    fi
    echo "$mli: val $name has no caller outside its module"
    status=1
  done
done
exit $status
