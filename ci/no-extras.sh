#!/usr/bin/env bash
# The command-line checks of a plain install (no extras).  Each block is one
# check, headed by an echo of its title.  Run it with `caslens` on PATH, from
# any directory: it works in a directory of its own, which it removes on exit,
# and finds README.md and the golden tables (perfbench/golden and ci/golden)
# next to itself.  Regenerate a golden table only with a change meant to move
# its digits.  Any failing command ends the run with its exit status.
set -e
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

# Usage: refuses EXIT PATTERN COMMAND...
# Runs COMMAND and fails unless it exits with EXIT, 1 or 2, and prints on
# stderr exactly one "error: " line (EXIT 1) or "numerical failure: " line
# (EXIT 2), PATTERN when PATTERN is not empty, and no traceback.
refuses() {
  expected=$1 pattern=$2
  shift 2
  case $expected in
    1) prefix='error: ' ;;
    2) prefix='numerical failure: ' ;;
    *) return 1 ;;
  esac
  code=0
  "$@" 2> err.txt || code=$?
  cat err.txt
  test "$code" -eq "$expected"
  test "$(grep -c "^$prefix" err.txt)" -eq 1
  if [ -n "$pattern" ]; then grep -q -e "$pattern" err.txt; fi
  if grep -q Traceback err.txt; then return 1; fi
}

echo "== Closed-form command, byte-identical to the golden table"
caslens reproduce-fig2 | cmp - "$root/perfbench/golden/reproduce-fig2.csv"

echo "== Plate commands, byte-identical to their golden tables, across tau = 2 pi and at T = 0"
# 1 to 8 um crosses z_T = 3.8 um, where the kernel switches series at 300 K.
for command in fpp pressure; do
  caslens $command --a-start 1um --a-stop 8um --a-step 0.5um \
    | cmp - "$root/ci/golden/$command-300K.csv"
  caslens $command --a-start 1um --a-stop 8um --a-step 0.5um --T 0 \
    | cmp - "$root/ci/golden/$command-0K.csv"
done

echo "== Exact PFA and quadrature on the Fig. 2 pit, byte-identical to their golden tables"
for method in full quadrature; do
  caslens force --method $method --profile pit --R 15cm --R1 12cm --D1 1um \
    --a-list 1um,2um,3um | cmp - "$root/ci/golden/pit-$method.csv"
done

# Usage: quadrature_matches_full PREFIX A_LIST BOUND FLAGS...
# Writes PREFIXquadrature.csv and PREFIXfull.csv for the profile flags at the
# separations of A_LIST, and fails unless there is one row per separation and
# every force of the quadrature lies within BOUND of the exact PFA by parts.
quadrature_matches_full() {
  prefix=$1 a_list=$2 bound=$3
  shift 3
  caslens force --method quadrature "$@" --a-list "$a_list" > "${prefix}quadrature.csv"
  caslens force --method full "$@" --a-list "$a_list" > "${prefix}full.csv"
  cat "${prefix}quadrature.csv"
  paste -d, "${prefix}quadrature.csv" "${prefix}full.csv" |
    awk -F, -v bound="$bound" -v a_list="$a_list" '
    NR == 1 { ok = $2 == "F_N" && $5 == "F_N"; next }
    { rel = $2 / $5 - 1; if (rel > bound || rel < -bound) ok = 0; rows++ }
    END { exit !(ok && rows == split(a_list, a, ",")) }'
}

echo "== Quadrature command, within 1e-9 of the exact PFA by parts: Fig. 2 bubble"
quadrature_matches_full "" 1um,2um,3um 1e-9 --profile bubble --R 15cm --R1 0.25m --D1 0.5um

echo "== Quadrature command, within 1e-9 of the exact PFA by parts: Fig. 2 pit"
quadrature_matches_full pit- 1um,2um,3um 1e-9 --profile pit --R 15cm --R1 12cm --D1 1um

echo "== Quadrature command, within 1e-9 of the exact PFA by parts: perfect lens at T = 0"
quadrature_matches_full perfect- 1um,2um,3um 1e-9 --R 15cm --T 0

echo "== Quadrature command, within 1e-11 of the exact PFA at a nanometre gap and 300 K"
quadrature_matches_full nm- 1.24nm 1e-11 --R 15cm --tol 1e-12

echo "== Low-temperature force, served by the dual series"
caslens force --profile perfect --R 15cm --a-list 0.1um --T 1

echo "== Exact perfect-lens PFA by parts, at the default temperature"
caslens force --method full --R 15cm --a-list 1um,3um

echo "== Exact perfect-lens PFA by parts, at zero temperature"
caslens force --method full --R 15cm --a-list 1um,3um --T 0

echo "== Exact PFA of a thin perfect lens"
caslens force --method full --R 15cm --D 1cm --a-list 1um,3um

echo "== Quadrature command, within 1e-9 of the exact PFA: a lens far thinner than its gap"
quadrature_matches_full thin- 1um,2um,3um 1e-9 --R 15cm --D 1e-12m

echo "== A lens thickness outside the served domain is refused with one error line"
refuses 1 '' caslens force --method full --R 15cm --D 1e-13m --a-list 1um,3um

echo "== A bubble whose closed-form terms cancel is refused by force and ratio with one error line"
for grid in "force --a-list 4mm" "ratio --a-start 4mm --a-stop 5mm --a-step 0.5mm"; do
  # $grid is the subcommand and its separations, split into words on purpose.
  refuses 1 'too thin' caslens $grid --profile bubble --R 12cm --R1 1e5m --D1 6e-11m
done

echo "== Exact bubble PFA by parts, at the default temperature"
caslens force --method full --profile bubble --R 15cm \
  --R1 0.25m --D1 0.5um --a-list 1um,3um

echo "== Exact pit PFA by parts, at zero temperature"
caslens force --method full --profile pit --R 15cm \
  --R1 0.12m --D1 1um --a-list 1um,3um --T 0

echo "== A --config file gives the flags' output; a-list wins over a_list"
printf 'a_list = 2um\na-list = 1um,3um\nT = 77\n' > run.cfg
caslens fpp --config run.cfg > from-config.csv
caslens fpp --a-list 1um,3um --T 77 > from-flags.csv
cmp from-config.csv from-flags.csv

echo "== README Library example"
python - "$root/README.md" <<'PY'
import pathlib, re, sys
text = pathlib.Path(sys.argv[1]).read_text(encoding="utf-8")
library = text.split("## Library", 1)[1]
code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
exec(compile(code, "README.md", "exec"), {})
PY

echo "== pressure, ratio, combine-errors and validate-lens run to their output"
caslens pressure --a-list 1um,3um --T 0 > pressure.csv
cat pressure.csv
awk -F, '
  NR == 1 { ok = $0 == "z_m,pressure_N_per_m2"; next }
  { if (!($2 < 0)) ok = 0; rows++ }
  END { exit !(ok && rows == 2) }' pressure.csv
caslens ratio --profile pit --R 15cm --R1 12cm --D1 1um \
  --a-start 1um --a-stop 3um --a-step 0.05um > ratio.csv
awk -F, '
  NR == 1 { ok = $0 == "a_m,ratio"; next }
  { if (!($2 < 1)) ok = 0; rows++ }
  END { exit !(ok && rows == 41) }' ratio.csv
# One systematic component with r = 0.19 / 0.02 = 9.5 > 8: it alone is the total.
printf 'random_error = 0.05\nsystematic_components = 0.19\nvariance_of_mean = 0.02\n' > budget.cfg
caslens combine-errors --budget budget.cfg > errors.txt
cat errors.txt
grep -qx 'r = 9.5' errors.txt
grep -qx 'rule = systematic-dominates' errors.txt
grep -qx 'delta_t = 0.19' errors.txt
caslens validate-lens --profile pit --R 15cm --R1 12cm --D1 1um > lens.txt
cat lens.txt
test "$(tail -n 1 lens.txt)" = "overall: PASS"

echo "== A grid of more than 100000 points is refused with exit 1"
refuses 1 100000 caslens fpp --a-start 1um --a-stop 3um --a-step 1e-12

echo "== A length outside the served domain is refused with one error line"
refuses 1 '' caslens validate-lens --profile bubble --R 1.7976931348623157e308m \
  --R1 3um --D1 1e300

echo "== A closed bubble form refuses a separation not small against R"
refuses 1 '' caslens force --profile bubble --R 15cm --R1 25cm --D1 0.5um --a-list 20cm

echo "== Quadrature refuses a footprint wider than the lens, and a bad --tol, with one error line"
refuses 1 footprint caslens force --method quadrature --profile bubble --R 1mm --R1 10m \
  --D1 0.9um --a-list 1um
refuses 1 --tol caslens force --method quadrature --R 15cm --a-list 1um --tol 1e-3x

echo "== Quadrature that cannot reach --tol exits 2 with one numerical failure line"
refuses 2 '' caslens force --method quadrature --R 15cm --a-list 1um --tol 1e-16

echo "== Every command meets the lens shape refusals, with one error line"
refuses 1 footprint caslens validate-lens --profile pit --R 1mm --R1 0.9mm --D1 0.9um \
  --D 1e-9m
refuses 1 'no footprint' caslens ratio --profile bubble --R 15cm --R1 0.1um --D1 1um \
  --a-list 1um,2um
refuses 1 'D=0.2' caslens force --method full --R 15cm --D 20cm --a-list 1um

echo "== A budget without a positive scatter of the mean is refused with one error line"
printf 'random_error = 0.05\nsystematic_components = 0.19\nvariance_of_mean = 0\n' > budget.cfg
refuses 1 'scatter of the mean' caslens combine-errors --budget budget.cfg

echo "== A budget with a confidence level outside (0, 1) is refused with one error line"
printf 'random_error = 0.05\nsystematic_components = 0.19\nvariance_of_mean = 0.02\nbeta = 1.5\n' \
  > budget.cfg
refuses 1 'beta=1.5' caslens combine-errors --budget budget.cfg

echo "== A --k-table component count that is not a whole number is refused with one error line"
printf 'random_error = 0.05\nsystematic_components = 0.19\nvariance_of_mean = 0.02\n' > budget.cfg
printf '2.5 1.1\n' > k.txt
refuses 1 'component count' caslens combine-errors --budget budget.cfg --k-table k.txt

echo "== A cap deeper than a hemisphere is refused with one error line"
refuses 1 'D1=1.5e-06' caslens validate-lens --profile bubble --R 15cm --R1 1um --D1 1.5um

echo "== A zero --delta-R is refused with one error line that names the flag"
refuses 1 --delta-R caslens validate-lens --profile pit --R 15cm --R1 0.12m --D1 1um \
  --delta-R 0

echo "== All checks passed"
