#!/usr/bin/env bash
# Dead-module gate: fails when a library header under src/ is included by
# nothing but its own .cc (and tests/) — a module no serving path, tool,
# bench or example reaches, kept alive only by its own tests.
#
# Usage:
#   tools/check_reachable.sh
#
# Includers are counted in src/, tools/, bench/, examples/ and
# perfbench/src/. Prints every unreachable header and exits 1 if there is
# one; exits 0 otherwise.
set -euo pipefail

cd "$(dirname "$0")/.."

includer_dirs=()
for dir in src tools bench examples perfbench/src; do
  [[ -d "${dir}" ]] && includer_dirs+=("${dir}")
done

unreachable=0
while IFS= read -r header; do
  own_source="${header%.h}.cc"
  includers=$(grep -rlF --include='*.h' --include='*.cc' \
                "#include \"${header#src/}\"" "${includer_dirs[@]}" |
              grep -vxF "${own_source}" || true)
  if [[ -z "${includers}" ]]; then
    echo "unreachable: ${header} (included only by ${own_source} or tests/)"
    unreachable=1
  fi
done < <(find src -name '*.h' | sort)

if [[ "${unreachable}" -ne 0 ]]; then
  echo "Delete the module(s) above with their tests, or wire them in." >&2
  exit 1
fi
echo "every src/ header is reached from outside its own module"
