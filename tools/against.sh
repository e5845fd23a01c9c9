#!/usr/bin/env bash
# Compare the outputs of this checkout with those of the commit REF. Both
# sides run this checkout's tools/cli_tree.sh and tools/grad_states.py,
# each with its own src on PYTHONPATH; the CLI trees are compared with
# `diff -r` and the gradient files with `grad_states.py --compare`.
#
#   tools/against.sh REF OUT
#
# REF's src is exported with `git archive` into OUT/ref-src, which is
# removed on exit; unlike a worktree, the copy leaves no entry in .git.
# OUT receives ref/ and this/ (the trees), ref.npz and this.npz (the
# gradients) and each side's log. Exits 1 when anything differs.
set -euo pipefail
usage="usage: tools/against.sh REF OUT"
ref=${1:?$usage}
out=${2:?$usage}
here=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$out/ref-src"
out=$(cd "$out" && pwd)
trap 'rm -rf "$out/ref-src"' EXIT
git -C "$here" archive "$ref" src | tar -x -C "$out/ref-src"

run_side() {  # NAME SRC
  echo "writing $1 ($2)"
  (export CF="python -m contactfatigue.cli" \
     PYTHONPATH="$2${PYTHONPATH:+:$PYTHONPATH}"
   "$here/tools/cli_tree.sh" "$out/$1"
   python "$here/tools/grad_states.py" "$out/$1.npz") > "$out/$1.log" 2>&1
}
run_side ref "$out/ref-src/src"
run_side this "$here/src"

status=0
diff -r "$out/ref" "$out/this" || status=1
python "$here/tools/grad_states.py" --compare "$out/ref.npz" \
  "$out/this.npz" || status=1
exit $status
