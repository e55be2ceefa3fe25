#!/usr/bin/env bash
# Golden-output gate: the figure benches must be byte-identical to the
# committed goldens in bench/goldens/.
#
# The flow-layer refactor (and any future one touching the credit pools)
# claims to be behavior-preserving; this harness is the enforcement: every
# bench_fig* binary is run on its default cold path, with the
# measurement-window environment overrides cleared (the simulation is fully
# deterministic, so the outputs are machine-independent), and diffed
# against its golden. Fork-vs-cold identity is checked separately, per
# component mix, by tests/test_checkpoint.cpp.
#
# Usage:
#   scripts/check_golden.sh [--update] [bench_build_dir]
#     bench_build_dir   defaults to build/bench
#     --update          re-capture the goldens from the current binaries
#                       (do this only when an output change is intended,
#                       and say why in the commit message)
#
# Exit status: 0 = all outputs byte-identical (or updated), 1 = divergence
# or a bench without a golden, 77 = nothing to check (no bench binaries --
# e.g. a tests-only sanitizer build; CTest's SKIP_RETURN_CODE).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
golden_dir="${repo_root}/bench/goldens"

mode=check
if [[ "${1:-}" == "--update" ]]; then
  mode=update
  shift
fi
bench_dir="${1:-${repo_root}/build/bench}"

if [[ ! -d "${bench_dir}" ]]; then
  echo "check_golden: bench build dir not found: ${bench_dir}" >&2
  echo "  build first: cmake -B build -S . && cmake --build build" >&2
  exit 77
fi

benches=()
for bin in "${bench_dir}"/bench_fig*; do
  [[ -x "${bin}" && ! -d "${bin}" ]] && benches+=("${bin}")
done
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "check_golden: no bench_fig* binaries in ${bench_dir} (skipping)" >&2
  exit 77
fi

mkdir -p "${golden_dir}"
tmp_out="$(mktemp)"
trap 'rm -f "${tmp_out}"' EXIT

failures=0
for bin in "${benches[@]}"; do
  name="$(basename "${bin}")"
  golden="${golden_dir}/${name}.txt"
  # The env overrides shorten CI measurement windows; goldens are captured
  # at the default windows so they are comparable across environments.
  env -u HOSTNET_MEASURE_US -u HOSTNET_WARMUP_US "${bin}" > "${tmp_out}"
  if [[ "${mode}" == "update" ]]; then
    cp "${tmp_out}" "${golden}"
    echo "updated  ${name}"
    continue
  fi
  if [[ ! -f "${golden}" ]]; then
    echo "MISSING  ${name}: no golden at bench/goldens/${name}.txt" \
         "(capture with scripts/check_golden.sh --update)"
    failures=$((failures + 1))
    continue
  fi
  if diff -u "${golden}" "${tmp_out}" > /dev/null; then
    echo "ok       ${name}"
  else
    echo "DIFFERS  ${name}:"
    diff -u "${golden}" "${tmp_out}" | head -40 || true
    failures=$((failures + 1))
  fi
done

if [[ "${mode}" == "update" ]]; then
  echo "check_golden: goldens updated (${#benches[@]} bench(es))"
  exit 0
fi
if [[ ${failures} -gt 0 ]]; then
  echo "check_golden: ${failures} bench(es) diverged from bench/goldens/" >&2
  exit 1
fi
echo "check_golden: OK (${#benches[@]} bench(es) byte-identical)"
