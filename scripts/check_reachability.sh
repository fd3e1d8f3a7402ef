#!/usr/bin/env bash
# Fails when a src/ module is reachable only from tests or benches. Run
# from the repo root:
#
#   scripts/check_reachability.sh
#
# Roots are every file under src/engine/, src/relational/, examples/ and
# e2ebench/ — the code the engine and its runnable surfaces are made of.
# From there it follows `#include "..."` transitively (resolved like the
# compiler: the including file's directory first, then src/, then the repo
# root). A reached header pulls in its same-stem .cc/.inc, whose includes
# are followed too. Every src/**/*.h left unreached is reported. A .cc with
# no same-stem header (kernels_avx2.cc, backend_cc_o2.cc) is an
# implementation unit of some header's declarations and is not flagged.
set -u

cd "$(dirname "$0")/.." || exit 2

declare -A seen=()
queue=()

visit() {
  if [ -f "$1" ] && [ -z "${seen[$1]+x}" ]; then
    seen[$1]=1
    queue+=("$1")
  fi
}

for f in src/engine/* src/relational/* examples/* e2ebench/*; do
  case "$f" in
    *.h | *.cc | *.inc) visit "$f" ;;
  esac
done

i=0
while [ $i -lt ${#queue[@]} ]; do
  f=${queue[$i]}
  i=$((i + 1))
  stem=${f%.*}
  if [ "${f##*.}" = h ]; then
    visit "$stem.cc"
    visit "$stem.inc"
  fi
  dir=$(dirname "$f")
  while IFS= read -r inc; do
    for cand in "$dir/$inc" "src/$inc" "$inc"; do
      if [ -f "$cand" ]; then
        visit "$(realpath --relative-to=. "$cand")"
        break
      fi
    done
  done < <(sed -n 's/^[[:space:]]*#[[:space:]]*include[[:space:]]*"\([^"]*\)".*/\1/p' "$f")
done

fail=0
while IFS= read -r h; do
  if [ -z "${seen[$h]+x}" ]; then
    echo "check_reachability: $h is not reachable from the engine" >&2
    fail=1
  fi
done < <(find src -name '*.h' | sort)

if [ $fail -ne 0 ]; then
  echo "check_reachability: wire the module(s) above into the engine or" \
    "delete them with their tests and benches" >&2
  exit 1
fi
echo "check_reachability: OK (${#seen[@]} files reached)"
