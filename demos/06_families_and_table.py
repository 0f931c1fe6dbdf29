"""Parametric families and the classification table.

Two infinite families are run as catalog cases, the path reproduce-all
takes: each member is enumerated once and every embedding's surface is
checked against its closed form.  The full table's arithmetic is
recomputed row by row.
"""

from orbisym import SurfaceType, builtin_table, m_alpha, run_case, verify_table


def embeddings(case_id: str, n: int) -> str:
    report = run_case(case_id, n=n)
    surfaces = ", ".join(
        f"{o.pattern.removeprefix('embedding ')} -> "
        f"{SurfaceType(o.orientable, o.genus, o.boundary)}" for o in report.outcomes)
    return f"n={n}: {surfaces} ({report.status})"


print("family 15E (order 2n), both embeddings:")
for n in (5, 6, 9):
    print(f"  {embeddings('15E', n)}")

print("family 19 (order n^2):")
for n in (3, 5, 10):
    print(f"  {embeddings('19', n)}")

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
