#!/usr/bin/env bash
# Write the output tree of a small seeded CLI run into OUT: the README's
# six commands on a small panel, plus a fit with every other model, a
# two-chain fit and a four-chain fit (eight split chains in its
# diagnostics). Two trees of one commit must be byte-identical under
# `diff -r`, and so must the trees of two commits whose outputs are meant
# to stay the same.
#
#   tools/cli_tree.sh OUT
#
# CF is the command to run, by default the installed console script:
#
#   CF="python -m contactfatigue.cli" PYTHONPATH=src tools/cli_tree.sh OUT
set -euo pipefail
out=${1:?usage: tools/cli_tree.sh OUT}
cf() { ${CF:-contactfatigue} "$@"; }
fit="--seed 7 --chains 1 --warmup 100 --sampling 20"
cf --seed 7 simulate --waves 3 --panel-size 60 --out "$out/data"
cf $fit fit --model gam-hill --data "$out/data/records.csv" --out "$out/fit"
for model in gam-plain longitudinal-hill longitudinal-gp \
    longitudinal-indep; do
  cf $fit fit --model "$model" --data "$out/data/records.csv" \
    --out "$out/fit-$model"
done
cf --seed 7 --chains 2 --warmup 100 --sampling 20 fit \
  --model longitudinal-hill --data "$out/data/records.csv" \
  --out "$out/fit-2-chains"
cf --seed 7 --chains 4 --warmup 100 --sampling 20 fit \
  --model gam-hill --data "$out/data/records.csv" \
  --out "$out/fit-4-chains"
cf evaluate --fit "$out/fit" --truth "$out/data/truth.manifest" \
  --out "$out/eval"
cf $fit select --data "$out/data/records.csv" --out "$out/sel"
cf $fit debias-sequence --data "$out/data/records.csv" --out "$out/seq"
cf $fit study --data "$out/data/records.csv" --caps 0,1 --out "$out/study"
