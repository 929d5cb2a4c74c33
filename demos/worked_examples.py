"""
Three small worked examples
===========================

1. A generalized difference set in Z_20 and the spectra of its Cayley graphs.
2. The 6-regular product-set graph on Z_4 x Z_4 (a strongly regular
   Ramanujan graph).
3. The polar trace set over GF(16): a bipartite 4-regular Ramanujan graph
   with five eigenvalues and diameter 4.
"""

import cayleyx as cx

# -- 1. Z_20 -------------------------------------------------------------------

g = cx.cyclic(20)
C = [(4,), (8,), (12,), (16,)]
cert = cx.verify_gds(g, C)
print("C = {4,8,12,16} in Z_20")
print("  GDS parameters (n, |S|, k, mu1, mu2):", cert.parameters)

graph = cx.CayleyGraph.build(g, C)
report = cx.certify(graph)
print("  spectrum:", report.spectrum.entries)  # 4 (x4) and -1 (x16)
print("  components:", report.stats.component_count)  # the subgroup <4> gives 4 copies of K_5

# the predicted eigenvalue envelope from the certificate contains everything
print("  predicted envelope:", sorted(cx.gds_predicted_eigenvalues(cert)))

# a symmetric set that is NOT a union of cosets gives a connected Ramanujan graph
ram = cx.CayleyGraph.build(g, [(3,), (4,), (8,), (12,), (16,), (17,)])
print("C = {3,4,8,12,16,17}: Ramanujan =", cx.certify(ram).verdict.is_ramanujan)
print()

# -- 2. product set on Z_4 x Z_4 -------------------------------------------------

rep = cx.theorem33_set(4, 4)
print("product set on Z_4 x Z_4")
print("  D =", sorted(rep.graph.connection.elements))
print("  spectrum:", rep.spectrum.entries)   # 6, 2 (x6), -2 (x9)
print("  srg parameters:", rep.graph.srg_check())
print("  Ramanujan:", rep.verdict.is_ramanujan)
print()

# -- 3. polar trace set over GF(16) ----------------------------------------------

rep = cx.polar_trace_set(2)
print("polar trace set over GF(16)")
print("  spectrum:", rep.spectrum.entries)   # +-4, +-2 (x4 each), 0 (x6)
print("  bipartite:", rep.stats.bipartite, " diameter:", rep.stats.diameter)
print("  Ramanujan:", rep.verdict.is_ramanujan)
