#!/usr/bin/env bash
# check_docs.sh — documentation drift gate, run by scripts/check.sh and the
# docs_check ctest.
#
# Three checks:
#   1. Flag coverage, both ways: every quoted "--flag" literal in tools/*.cpp
#      must be documented in docs/TOOLS.md (as `--flag` followed by a word
#      boundary, so `--check` cannot hide behind `--checkpoint-every`), and
#      every backticked `--flag` in docs/TOOLS.md must appear as a quoted
#      "--flag" literal in tools/*.cpp (no stale flag stays documented).
#   2. Relative links: every markdown link target in README.md, DESIGN.md,
#      and docs/*.md that is not a URL or a pure anchor must resolve to an
#      existing file (relative to the file containing the link).
#   3. Section anchors: every "DESIGN.md §N" (and bare "§N" inside
#      DESIGN.md) must have a matching "## N." heading in DESIGN.md.
#
# --self-test runs the negative mode: check 1 must FAIL against a doctored
# TOOLS.md with one flag's documentation removed, and against one that
# documents a phantom flag no tool accepts, proving the gate catches drift
# in both directions.
set -uo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- check 1: tool flags are documented -------------------------------------
# $1 = the TOOLS.md to check against. Prints failures; returns nonzero if
# any flag is undocumented.
check_flags() {
  local tools_md="$1" missing=0 tool flag
  for src in tools/*.cpp; do
    tool="$(basename "$src" .cpp)"
    for flag in $(grep -o '"--[a-z0-9-]*"' "$src" | tr -d '"' | sort -u); do
      # Documented means `--flag` with a boundary after it: closing
      # backtick, space (value placeholder), or '=' (the --trace=FILE form).
      if ! grep -Eq '`'"${flag}"'(`| |=)' "$tools_md"; then
        echo "FAIL: $tool flag $flag is not documented in $tools_md"
        missing=1
      fi
    done
  done
  for flag in $(grep -o '`--[a-z0-9-]*' "$tools_md" | tr -d '`' | sort -u); do
    if ! grep -q "\"${flag}\"" tools/*.cpp; then
      echo "FAIL: $tools_md documents $flag, which no tool accepts"
      missing=1
    fi
  done
  return "$missing"
}

if [ "${1:-}" = "--self-test" ]; then
  # Negative mode: strip the --metrics-out rows from a copy of TOOLS.md, then
  # add a phantom flag to another copy, and require the flag check to notice
  # each.
  doctored="$(mktemp)"
  trap 'rm -f "$doctored"' EXIT
  grep -v -- '--metrics-out' docs/TOOLS.md > "$doctored"
  if check_flags "$doctored" > /dev/null; then
    echo "SELF-TEST FAIL: undocumented --metrics-out was not detected"
    exit 1
  fi
  { cat docs/TOOLS.md; echo '| `--no-such-flag` | phantom |'; } > "$doctored"
  if check_flags "$doctored" > /dev/null; then
    echo "SELF-TEST FAIL: documented phantom --no-such-flag was not detected"
    exit 1
  fi
  echo "self-test ok: undocumented and phantom flags are detected"
  exit 0
fi

check_flags docs/TOOLS.md || fail=1

# --- check 2: relative markdown links resolve -------------------------------
for md in README.md DESIGN.md docs/*.md; do
  dir="$(dirname "$md")"
  # Link targets: ](target) — strip URLs, pure #anchors, and any #anchor
  # suffix on a file target.
  for target in $(grep -o '](\([^)]*\))' "$md" | sed 's/^](//; s/)$//'); do
    case "$target" in
      http://*|https://*|chrome://*|\#*) continue ;;
    esac
    file="${target%%#*}"
    [ -n "$file" ] || continue
    if [ ! -e "$dir/$file" ] && [ ! -e "$file" ]; then
      echo "FAIL: $md links to missing file: $target"
      fail=1
    fi
  done
done

# --- check 3: DESIGN.md section references resolve --------------------------
refs="$( { grep -ho 'DESIGN\.md §[0-9]*' README.md docs/*.md tools/*.cpp \
             src/*/*.hpp src/*/*.cpp 2>/dev/null;
           grep -ho '§[0-9]*' DESIGN.md; } |
         grep -o '§[0-9]*' | tr -d '§' | sort -un )"
for n in $refs; do
  if ! grep -q "^## $n\." DESIGN.md; then
    echo "FAIL: reference to DESIGN.md §$n but no '## $n.' heading exists"
    fail=1
  fi
done

if [ "$fail" = "0" ]; then
  echo "docs check ok: flags documented, links resolve, section refs valid"
fi
exit "$fail"
