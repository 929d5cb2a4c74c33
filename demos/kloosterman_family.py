"""
Kloosterman sums and the trace-set graph family
===============================================

k_m(1) read from the value table next to two closed forms, and the family
of Cayley graphs on the additive group of GF(2^m) with connection set
{z != 0 : Tr(z) = Tr(1/z) = 1}.
The degree is (k_m(1) + 2^m + 1)/4 and every nontrivial eigenvalue is a
quarter-difference of two Kloosterman values, so the whole spectrum is known
in closed form.
"""

import math

import cayleyx as cx


def recursion(m):
    """k_m(1) by k_{m+2} = -k_{m+1} - 2 k_m from k_1 = 1, k_2 = 3."""
    a, b = 1, 3
    for _ in range(m - 1):
        a, b = b, -b - 2 * a
    return a


def carlitz(m):
    """k_m(1) by Carlitz's form -sum_j (-1)^(m-j) m/(m-j) C(m-j, j) 2^j."""
    return -sum((-1) ** (m - j) * m * math.comb(m - j, j) * 2 ** j // (m - j)
                for j in range(m // 2 + 1))


print("m  k_m(1)  recursion  closed-form")
for m in range(1, 11):
    print(f"{m:<3}{cx.KloostermanTable.compute(m)[1]:>6}{recursion(m):>10}{carlitz(m):>12}")
print()

print("m  |D|  bipartite  connected  Ramanujan(spectrum)  filter k_m(1)>3")
for m in range(2, 11):
    rep = cx.kloosterman_trace_set(m)
    print(f"{m:<3}{rep.graph.k:>4}"
          f"{str(rep.stats.bipartite):>10}"
          f"{str(rep.stats.component_count == 1):>10}"
          f"{str(rep.verdict.is_ramanujan):>14}"
          f"{str(rep.predicted_ramanujan):>16}")
print()
print("The filter is sufficient-only: it fires at m=5 and m=8, while the")
print("spectrum certifies every connected member of the family.")

# the full value set of k_m(.) is known exactly: all integers = -1 mod 4
# within the Weil bound
for m in (3, 4, 5):
    print(f"value set of k_{m}:", sorted(cx.kloosterman_value_set(m)))
