"""
Exhaustive search for Ramanujan circulants
==========================================

Scan every symmetric subset of Z_n (bit i of the encoding selects the pair
{i, n-i}) and keep the connection sets whose circulant certifies Ramanujan;
then scan every subset of Z_12 for generalized difference sets.
"""

import cayleyx as cx
from cayleyx.groupring import has_multiplier_minus_one

for n in (15, 20):
    hits = list(cx.search_ramanujan_circulant(n))
    print(f"n={n}: {len(hits)} Ramanujan circulants")
    for h in hits[:5]:
        print(f"  s={h.encoding:<6} C={h.C}  k={h.degree}  "
              f"|lambda_2|={h.second_largest_abs:.4f} <= {h.verdict.bound:.4f}")
    print("  ...")

# the 12-regular hit on Z_20 in detail
target = (1, 3, 4, 7, 8, 9, 11, 12, 13, 16, 17, 19)
g = cx.cyclic(20)
graph = cx.CayleyGraph.build(g, [(c,) for c in target])
report = cx.certify(graph)
print("C =", target)
print("  multiplier -1:", has_multiplier_minus_one(g, [(c,) for c in target]))
print("  spectrum:", report.spectrum.entries)
print("  Ramanujan:", report.verdict.is_ramanujan)
print()

# every GDS of Z_12, translates and complements included
hits = list(cx.search_gds(12))
print(f"n=12: {len(hits)} generalized difference sets")
for C, cert in hits[:3]:
    print(f"  C={C.tolist()}  (n, |S|, k, mu1, mu2)={cert.parameters}")
print("  ...")
