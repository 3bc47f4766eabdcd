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
# compared with `diff -r`; each run's output path and the tree path are
# replaced by OUT and TREE first, so that only content can differ.
# Exits 0 and prints "no difference" when both sides agree, 1 with the
# diff when they do not, 2 on a usage error.
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
if diff -r "$work/parent" "$work/change"; then
    echo "no difference"
else
    exit 1
fi
