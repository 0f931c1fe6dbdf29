"""Edge scenario: four boundary patterns of one order-120 group.

Each pattern is a pair of subgroup words; its index in the group is the
number of boundary components, and a Z2 check decides orientability.  Together
with the algebraic genus (11 here), that pins down the surface.
"""

from orbisym import find_case, run_case

entry = find_case("orbifold-28-edge")
print("case:", entry.id)
print("alpha:", entry.scenario.alpha)
print("patterns:", [p.name for p in entry.scenario.patterns])
print()

report = run_case("orbifold-28-edge")
print("group order:", report.computed_order)
for outcome in report.outcomes:
    orient = "orientable" if outcome.orientable else "non-orientable"
    print(f"  {outcome.pattern}: {outcome.boundary} boundary components, "
          f"{orient}, genus {outcome.genus}")
print("surfaces:", ", ".join(str(s) for s in report.computed_surfaces))
print("status:", report.status)
