"""Re-derive seed-picked reference cells with independent oracles.

    oracle_check.py ROOT REFERENCE SEED COUNT

Picks COUNT nonzero cells of a reference table with ``random.Random(SEED)``
and recomputes each by an oracle that does not use the tableau sums:
``billey_restrict_h`` (subword formula) for H cells and
``kclass_union_oracle`` (inclusion-exclusion) for K cells.  Only cells the
oracle can afford are eligible: K cells within the union oracle's guard of
20 components, H cells whose fixed point has length at most
``H_MAX_BETA_LENGTH`` (the subword sum grows about 2x per unit of length; at
n=6 length 13 takes 0.25 s, length 21 takes 50 s).  Prints one JSON list of
the checked cells, each with ``agrees``.
"""

import hashlib
import json
import os
import random
import sys

root, ref_path, seed, count = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
sys.path.insert(0, os.path.join(root, "src"))

from lgrass import (billey_restrict_h, enumerate_isotropic,  # noqa: E402
                    enumerate_ssyt, kclass_union_oracle, length, sigma)

UNION_LIMIT = 20
H_MAX_BETA_LENGTH = 13

with open(ref_path) as handle:
    ref = json.load(handle)
points = enumerate_isotropic(ref["n"])
if [str(p) for p in points] != ref["points"]:
    sys.exit("reference points differ from enumerate_isotropic")

eligible = []
for i, a in enumerate(points):
    for j, b in enumerate(points):
        components = len(enumerate_ssyt(sigma(a), sigma(b)))
        if components == 0:
            continue
        if ref["theory"] == "K" and components <= UNION_LIMIT:
            eligible.append((i, j, components))
        if ref["theory"] == "H" and length(b) <= H_MAX_BETA_LENGTH:
            eligible.append((i, j, components))

cells = []
for i, j, components in random.Random(seed).sample(eligible, min(count, len(eligible))):
    a, b = points[i], points[j]
    if ref["theory"] == "K":
        oracle = "kclass_union_oracle"
        text = json.dumps(kclass_union_oracle(a, b, UNION_LIMIT).to_json(),
                          sort_keys=True, separators=(",", ":"))
    else:
        oracle = "billey_restrict_h"
        text = billey_restrict_h(a, b).pretty()
    cells.append({"alpha": str(a), "beta": str(b), "components": components,
                  "oracle": oracle,
                  "agrees": hashlib.sha256(text.encode()).hexdigest()[:16] == ref["digests"][i][j]})
print(json.dumps(cells))
