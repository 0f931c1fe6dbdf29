"""Dashed-arc sweep: conjugate one arc word over the whole group.

For every group element c, the pattern words are rebuilt from the fixed
word and the conjugated arc word; c is admissible when the two of them
still generate the whole group.  Four pattern variants are evaluated
per admissible c and the classified surfaces are collected.  The group
is enumerated once: the sweep walks its regular coset table, whose coset
words are the conjugators and whose orbits give every subgroup index.
"""

import time

from orbisym import enumerate_cosets, evaluate_dashed_arc_scenario, find_case

entry = find_case("orbifold-28-dashed")
scenario = entry.scenario
print("alpha:", scenario.alpha)

started = time.perf_counter()
regular = enumerate_cosets(scenario.presentation)  # the one enumeration
result = evaluate_dashed_arc_scenario(scenario, regular)
elapsed = time.perf_counter() - started

print(f"admissible conjugators: {result.admissible} of {result.visited}")
print(f"pattern evaluations:    {len(result.per_pattern)}")
print(f"boundary components:    {sorted({o.boundary for o in result.per_pattern})}")
print(f"all orientable:         {all(o.orientable for o in result.per_pattern)}")
print(f"surfaces:               {', '.join(str(s) for s in result.surfaces)}")
print(f"enumerated and swept in {elapsed * 1000:.0f} ms")

# the early-stop mode skips conjugators whose moved arc c*arc*c^-1 is an
# element already seen; the surface set cannot change
stopped = evaluate_dashed_arc_scenario(scenario, regular, early_stop=True)
print(f"early stop: {stopped.visited} conjugators visited, "
      f"{len(stopped.per_pattern)} evaluations, "
      f"same surfaces: {stopped.surfaces == result.surfaces}")
