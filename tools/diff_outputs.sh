#!/bin/sh
# Check that no command-line output moved against an earlier revision.
#
# Usage (from anywhere inside the repository):
#
#     tools/diff_outputs.sh PARENT_REV
#
# Exports PARENT_REV with `git archive` into a temporary directory, then
# runs a fixed list of `python3 -m bicforge.cli` invocations and every
# demo, once on that export and once on the working tree (uncommitted
# edits included), each with one BLAS thread and in its own empty
# directory.  The `--in` invocations read kernel files that the export
# writes once, beforehand, into an input directory both sides share:
# `shift --E 4.0` gives a momentum-space file and `coord` the
# coordinate-space ones, which `--in` must refuse with exit code 1.
# The stdout, stderr, exit code and written files of each run are
# compared byte for byte; each run's output path and the tree path are
# replaced by OUT and TREE first, so that only content can differ.
# Exits 0 and prints "no difference" when both sides agree, 2 on a usage
# error, and 1 when they do not, with one report per differing file.
# Each file is split into tokens at blanks and at , = ; : ( ) [ ], and the
# tokens that parse as floats are its entries.  A file whose other tokens
# agree gets one line: its largest absolute move and that move divided by
# the file's largest |entry| on the PARENT_REV side.  A file whose other
# tokens differ gets its unified diff, and a file on one side only says so.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 PARENT_REV" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM
mkdir "$work/parent-tree"
git -C "$root" archive "$1" | tar -x -C "$work/parent-tree"

OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
export OPENBLAS_NUM_THREADS OMP_NUM_THREADS MKL_NUM_THREADS

input=$work/input
for args in "shift --E 4.0" coord; do
    # $args is split into words on purpose
    PYTHONPATH="$work/parent-tree/src" python3 -m bicforge.cli --out "$input" \
        $args >/dev/null
done

# one invocation per line: shared flags, subcommand, subcommand flags
invocations="reproduce-paper
--format structured-text --mev reproduce-paper
seed
bound
phase
tmatrix
sbdecomp
shift
perturb
census
extract
coord
vnw
separable
verify-ab
shift --E 4.0
vnw --k 0
--n 16 reproduce-paper
--n 16 bound
census --in $input/shift_E+4.0.bk
sbdecomp --in $input/shift_E+4.0.bk
extract --in $input/shift_E+4.0.bk
census --in $input/vb_coord_E+4.0.bk"

# run_all TREE LABEL: every invocation and demo of TREE under $work/LABEL
run_all() {
    tree=$1
    out=$work/$2
    i=0
    while read -r args; do
        i=$((i + 1))
        d=$out/cli$i
        mkdir -p "$d/files"
        echo "$args" >"$d/args"
        code=0
        # $args is split into words on purpose
        (cd "$d/files" && PYTHONPATH="$tree/src" python3 -m bicforge.cli \
            --out "$d/files" $args) >"$d/stdout" 2>"$d/stderr" || code=$?
        echo "$code" >"$d/code"
        sed -i -e "s#$d/files#OUT#g" -e "s#$tree#TREE#g" "$d/stdout" "$d/stderr"
    done <<EOF
$invocations
EOF
    for demo in "$tree"/demos/*.py; do
        d=$out/$(basename "$demo" .py)
        mkdir -p "$d/files"
        code=0
        (cd "$d/files" && PYTHONPATH="$tree/src" python3 "$demo") \
            >"$d/stdout" 2>"$d/stderr" || code=$?
        echo "$code" >"$d/code"
        sed -i -e "s#$tree#TREE#g" "$d/stdout" "$d/stderr"
    done
}

run_all "$work/parent-tree" parent
run_all "$root" change
if diff -rq "$work/parent" "$work/change" >/dev/null; then
    echo "no difference"
    exit 0
fi
python3 - "$work/parent" "$work/change" <<'PY' || true
import difflib
import re
import sys
from pathlib import Path

import numpy as np

SEPARATORS = re.compile(r"([\s,=;:()\[\]]+)")


def split(text):
    """The float entries of text and its other tokens, entries marked by #."""
    entries, skeleton = [], []
    for token in SEPARATORS.split(text):
        try:
            entries.append(float(token))
            skeleton.append("#")
        except ValueError:
            skeleton.append(token)
    return np.array(entries), skeleton


parent, change = Path(sys.argv[1]), Path(sys.argv[2])
names = sorted({p.relative_to(parent) for p in parent.rglob("*") if p.is_file()}
               | {p.relative_to(change) for p in change.rglob("*") if p.is_file()})
for name in names:
    a, b = parent / name, change / name
    if not (a.is_file() and b.is_file()):
        print(f"{name}: only in {'parent' if a.is_file() else 'change'}")
        continue
    if a.read_bytes() == b.read_bytes():
        continue
    text_a, text_b = a.read_text(errors="replace"), b.read_text(errors="replace")
    (xa, skel_a), (xb, skel_b) = split(text_a), split(text_b)
    if skel_a != skel_b:
        print(f"{name}: text differs")
        sys.stdout.writelines(difflib.unified_diff(
            text_a.splitlines(True), text_b.splitlines(True), "parent", "change"))
        continue
    same = (xa == xb) | (np.isnan(xa) & np.isnan(xb))
    move = float(np.max(np.where(same, 0.0, np.abs(xa - xb))))
    finite = np.abs(xa[np.isfinite(xa)])
    scale = float(np.max(finite)) if finite.size else 0.0
    relative = f"{move / scale:.2e}" if scale > 0 else "n/a"
    print(f"{name}: max |move| {move:.2e}, relative {relative} "
          f"(largest |entry| {scale:.6g}, {xa.size} entries)")
PY
exit 1
