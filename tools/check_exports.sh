#!/bin/sh
# No export without a caller: fails when a `val` in a lib/ interface is
# named, as a word, by no tracked .ml or .mli outside its own module.
# A word grep, so it is rough: a name another module uses for something
# else passes. Run from the repository root.
set -eu
status=0
for mli in $(git ls-files 'lib/*.mli'); do
  ml="${mli%i}"
  for name in $(sed -n "s/^val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli"); do
    if ! git grep -qw -e "$name" -- '*.ml' '*.mli' ":!$mli" ":!$ml"; then
      echo "$mli: val $name has no caller outside its module"
      status=1
    fi
  done
done
exit $status
