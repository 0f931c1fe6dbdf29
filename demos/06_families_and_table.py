"""Parametric families and the classification table.

Two infinite families are evaluated by coset enumeration and checked
against their closed forms; the full table's arithmetic is recomputed
row by row.
"""

from orbisym import builtin_table, m_alpha, verify_table
from orbisym.scenario import FAMILY_15E, FAMILY_19, evaluate_family

print("family 15E (order 2n), both embeddings:")
for n in (5, 6, 9):
    a = evaluate_family(FAMILY_15E, n, "A")
    b = evaluate_family(FAMILY_15E, n, "B")
    print(f"  n={n}: A -> {a}, B -> {b}")

print("family 19 (order n^2):")
for n in (3, 5, 10):
    print(f"  n={n}: {evaluate_family(FAMILY_19, n)}")

print()
print("maximal order by algebraic genus:")
for alpha in (2, 7, 11, 21, 29, 36, 41, 100):
    cls = m_alpha(alpha)
    print(f"  a={alpha}: {cls.value} ({cls.label})")

print()
rows = builtin_table()
print(f"classification table: {len(rows)} rows")
results = verify_table()
failures = [r for r in results if not r.passed]
print(f"verification: {len(results)} checks, {len(failures)} failures")
