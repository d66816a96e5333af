#!/bin/sh
# Byte-identity grid: run a fixed set of ratroot commands and print, for
# each, a "### <command>" header, its stdout, each line of its stderr marked
# "stderr> ", and its exit code. Run it in two checkouts and diff the
# outputs; any difference is a change in behaviour.
#
#   tools/identity_grid.sh [CHECKOUT] > grid.txt
#
# CHECKOUT defaults to the repository holding this script; ratroot is
# imported from its src/. The grid is 224 commands (n 2-8, k in 1 2 7 1000,
# eight command forms), then every --help, selftest, five heavy commands
# whose integers pass the 2**15-bit rendering cutover, two --fib chains
# at n 16 and 33, the last ratio index of three tables, five traces from
# explicit starts (three of them refused), five argv that argparse itself
# refuses, ten n = 2 convergents (five approx, the last refused because its
# rate rounds to 1, and five tables), and seven chpow runs at n 48 and 64
# whose ring power starts from a binomial row of up to 2n**2 (at n 64, t
# 4096, 4097 and 6000 are rows alone; t 4609 at n 48 and 8193 at n 64 are
# one square past a row of n**2), then four large outputs, one in each
# format and from the n >= 3 reduction, each written line by line, and four
# heavy approx answers whose roots take one or more isqrt steps (n 4, 6 and
# 8) or none (n 5), with fractions of about 40 kbit at n 6, then four tables
# that cross the split of a large table into spans built in forked children
# (on a host with two or more usable CPUs): one whose child jumps to its
# first step past --t0, a plain n = 3 table exactly at the split threshold
# and one row below it, and an n = 2 table whose tail span starts on an odd
# step: 281 commands in all. It takes about a minute. Run under taskset -c 0
# (one usable CPU) it prints the same bytes from the sequential loop alone.
#
# It runs the first python3 on PATH. To diff interpreters, put another one
# first: PATH=/other/python/bin:$PATH tools/identity_grid.sh, or under
# pyenv PYENV_VERSION=3.12.1 tools/identity_grid.sh.
root=${1:-$(dirname "$0")/..}
err=$(mktemp)
trap 'rm -f "$err"' EXIT
run() {
    echo "### $*"
    PYTHONPATH="$root/src" python3 -m ratroot.cli "$@" 2>"$err"
    rc=$?
    sed 's/^/stderr> /' "$err"
    echo "rc=$rc"
}
for n in 2 3 4 5 6 7 8; do
    for k in 1 2 7 1000; do
        for a in "approx --digits 30" "table --t1 40 --format csv" \
                 "trace --mode linear --steps 25 --format json" "trace --mode scalar --steps 6" \
                 "eig" "eig --format json" "chpow --t 300" "chpow --fib 12 --format json"; do
            # $a is split into words on purpose
            run $a --n $n --k $k
        done
    done
done
run --help
for c in approx table trace eig chpow selftest; do
    run $c --help
done
run selftest
run approx --n 2 --k 9366 --digits 132
run approx --n 3 --k 9973 --digits 150 --format json
run approx --n 2 --k 2 --digits 50000
run chpow --n 2 --k 3 --t 200000
run table --n 2 --k 2 --t0 100000 --t1 100002
for n in 16 33; do
    run chpow --fib 15 --format csv --n $n --k 50
done
for n in 3 5 8; do
    run table --k 7 --t1 40 --index $((n-1)) --format csv --n $n
done
run trace --mode linear --n 3 --k 2 --start 2,0,-1 --steps 25 --format csv
run trace --mode linear --n 2 --k 1 --start=-1,1 --steps 3
run trace --mode linear --n 2 --k 2 --start 0,0
run trace --mode linear --n 3 --k 2 --start 1,1
run trace --mode scalar --n 3 --k 2 --start 3/7 --steps 5 --format json
run approx --n 2 --k 2
run approx --n x --k 2 --digits 5
run table --n 2 --k 2 --bogus
run chpow --n 2 --k 2 --t 5 --fib 3
run bogus --n 2 --k 2
for a in "--k 7531 --digits 145" "--k 2311 --digits 200 --format json" \
         "--k 1000001 --digits 3" "--k 3 --digits 20000" \
         "--k 100000000000000000000000000000001 --digits 5"; do
    run approx --n 2 $a
done
run table --n 2 --k 1 --t1 30
run table --n 2 --k 4 --t1 30 --format csv
run table --n 2 --k 9 --t0 3 --t1 50 --format json
run table --n 2 --k 7531 --t0 1000 --t1 1010
run table --n 2 --k 2311 --t1 300 --format csv
for t in 4609 6000; do
    run chpow --n 48 --k 30 --t $t
done
for t in 4096 4097 6000 8193; do
    run chpow --n 64 --k 50 --t $t
done
run chpow --n 64 --k 50 --fib 15 --format json
run table --n 2 --k 2 --t1 3000 --format json
run table --n 3 --k 7 --t1 2000 --format csv
run table --n 5 --k 40 --t1 1500 --index 3
run trace --mode linear --n 2 --k 3 --steps 2000 --format json
for a in "--n 4 --k 7 --digits 1500" "--n 6 --k 42 --digits 1499" \
         "--n 8 --k 3 --digits 1200" "--n 5 --k 21 --digits 1399"; do
    run approx $a
done
run table --n 4 --k 3 --t0 700 --t1 2600 --index 2
for t1 in 1058 1057; do
    run table --n 3 --k 7 --t1 $t1
done
run table --n 2 --k 3 --t1 1400 --format csv
