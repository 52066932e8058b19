#!/bin/sh
# Command-line smoke checks that need no test framework and no sympy.
# Run from anywhere: sh scripts/ci_smoke.sh
set -eu
cd "$(dirname "$0")/.."
export PYTHONPATH=src
MODEL=src/polyads/data/cloh.model
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# exit code 2 expected from "$@"
expect_usage_error() {
    status=0
    timeout 60 "$@" || status=$?
    test "$status" -eq 2
}

# importing the package loads none of its submodules
python -c 'import polyads, sys; loaded = [m for m in sys.modules if m.startswith("polyads.")]; assert not loaded, loaded'
python -m polyads spectrum --model "$MODEL" --pmax 10 --n3max 1
# the census table ends with the operator total that count reports
n_op=$(python -m polyads count --n 3 --p 2 --q 1 --order 12 --format json |
    python -c 'import json, sys; print(json.load(sys.stdin)["n_op"])')
test "$(python -m polyads enumerate --n 3 --p 2 --q 1 --order 12 | tail -n 1)" = "total $n_op"
# the hand-written census JSON is the text the stdlib encoder gives, at the
# small size and at the benchmark's size
for size in "--n 3 --p 2 --q 1 --order 12" "--n 6 --p 3 --q 2 --order 30"; do
    # shellcheck disable=SC2086
    python -m polyads enumerate $size --format json > "$TMP/census.json"
    python -c 'import json, sys; print(json.dumps(json.load(open(sys.argv[1])), indent=2))' "$TMP/census.json" > "$TMP/census_stdlib.json"
    cmp "$TMP/census.json" "$TMP/census_stdlib.json"
done
# the frozen reference tables regenerate cell for cell
python -m polyads verify-tables | tail -n 1 | grep -qx "all tables verified"
# the audit at the benchmark's size recovers the brute-force 3-monomial count
python -m polyads audit --order 220 --p 3 --q 2 --kind 3 --format json |
    python -c 'import json, sys; from polyads.monomials import brute_force_delta2; assert json.load(sys.stdin)["delta"] == brute_force_delta2(220, 3, 2)'
# a coupling census with no monomial is an empty array
test "$(python -m polyads enumerate --kind coupling --n 2 --p 5 --q 2 --order 6 --format json)" = "[]"
# so is the streamed spectrum JSON
python -m polyads spectrum --model "$MODEL" --pmax 20 --n3max 2 --format json --out "$TMP/levels.json"
python -c 'import json, sys; print(json.dumps(json.load(open(sys.argv[1])), indent=2))' "$TMP/levels.json" > "$TMP/levels_stdlib.json"
cmp "$TMP/levels.json" "$TMP/levels_stdlib.json"
# a 3:2 model has no states at P = 1 and must still get a spectrum
printf 'n=2\np=3\nq=2\norder=6\nomega 1 1000.0\nomega 2 1500.0\ncoupling 1 - 0.5\n' > "$TMP/three_two.model"
python -m polyads spectrum --model "$TMP/three_two.model" --pmax 10
# caps whose blocks exceed the matrix budget exit 2 before assembly
expect_usage_error python -m polyads spectrum --model "$MODEL" --pmax 1500
# an unwritable --out and an oversized sample count exit 2
expect_usage_error python -m polyads spectrum --model "$MODEL" --pmax 4 --out /nonexistent/x
expect_usage_error python -m polyads phase-space --p 2 --q 1 --h0 1.5 --samples 1000000000
# non-finite or overflowing phase-space curves and a negative order exit 2
expect_usage_error python -m polyads phase-space --p 2 --q 1 --h0 nan
expect_usage_error python -m polyads phase-space --p 2 --q 1 --h0 1e200
expect_usage_error python -m polyads count --n 3 --p 2 --q 1 --order -1
# census ladders that are not a coprime pair of positive integers exit 2
expect_usage_error python -m polyads count --n 3 --p -1 --q 1 --order 6
expect_usage_error python -m polyads enumerate --n 3 --p 0 --q 1 --order 6
expect_usage_error python -m polyads audit --order 10 --p 2 --q 4 --kind 2
# a header n too large to index a vector exits 2 before any term is built
printf 'n=10000000000000000000\np=2\nq=1\norder=6\nomega 1 1.0\n' > "$TMP/huge_n.model"
expect_usage_error python -m polyads spectrum --model "$TMP/huge_n.model" --pmax 4
# exact algebra: the generator bracket table and the syzygy hold, and a
# product of generators is invariant, all with zero residual
python -c '
import sys
from polyads.resonance import ResonanceSpec, ad_h0, generators, syzygy_residual, verify_bracket_table
for p, q in ((1, 1), (2, 1), (3, 1), (3, 2)):
    spec = ResonanceSpec(n=3, p=p, q=q)
    gens = generators(spec)
    assert all(entry.ok for entry in verify_bracket_table(spec)), (p, q)
    assert syzygy_residual(spec).is_zero(), (p, q)
    assert ad_h0(gens[-1] * gens[0] ** 2 * gens[3], spec).is_zero(), (p, q)
assert "sympy" not in sys.modules
'
# the worked model is read from the shipped file: 86 slots, 31 of them
# off-diagonal, 28 nonzero
python -c '
import sys
from polyads.model import cloh_model
m = cloh_model()
assert (m.slot_count(), len(m.off_diagonal_terms()), m.nonzero_count()) == (86, 31, 28)
assert "sympy" not in sys.modules
'
# the shipped model survives parse and serialize byte for byte, comments aside
grep -v '^#' "$MODEL" > "$TMP/body.model"
python -c 'import sys; from polyads.model import parse_model_file, serialize_model; sys.stdout.write(serialize_model(parse_model_file(sys.argv[1])))' "$MODEL" > "$TMP/round.model"
cmp "$TMP/body.model" "$TMP/round.model"
echo "smoke checks passed"
