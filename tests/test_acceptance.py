"""Acceptance suite: the nine headline checks, one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines
with their timings.
"""

from __future__ import annotations

import math
import random
import time

from orbisym import (
    Presentation,
    SurfaceType,
    Word,
    Z2Constraint,
    conjugate,
    enumerate_cosets,
    evaluate_dashed_arc_scenario,
    evaluate_edge_scenario,
    exponent_vector_mod2,
    group_order,
    load_presentation,
    parse_word,
    solve_hom_to_z2,
    verify_coset_table,
    verify_table,
)
from orbisym.scenario import FAMILY_15E, FAMILY_19, evaluate_family
from conftest import (
    ORBIFOLD_28_TEXT,
    brute_force_hom2,
    mulclose,
    triangle_rotation_generators,
)
from test_scenario import dashed_scenario, orbifold_edge_scenario


def _criterion(number: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({label}): {verdict} ({detail})")
    assert ok, f"criterion {number} ({label}): {detail}"


def _orbifold():
    return load_presentation(ORBIFOLD_28_TEXT)


def S(g, b):
    return SurfaceType(orientable=True, genus=g, boundary=b)


def N(g, b):
    return SurfaceType(orientable=False, genus=g, boundary=b)


def _edge_subgroups(pres):
    names = pres.generator_names
    midarc = parse_word("x*y*z^-1*x^-1", names)
    left = parse_word("x*y", names)
    right1 = parse_word("x*y*x^-1", names)
    right2 = parse_word("x*z*x^-1", names)
    moved = midarc * left * ~midarc
    return ((right1, left), (right1, moved), (right2, left), (right2, moved))


def test_criterion_1_group_order():
    pres = _orbifold()
    started = time.perf_counter()
    order = group_order(pres)
    elapsed = time.perf_counter() - started
    _criterion(1, "group order", order == 120 and elapsed < 1.0,
               f"order={order}, {elapsed:.3f}s < 1s")


def test_criterion_2_subgroup_indices():
    pres = _orbifold()
    started = time.perf_counter()
    indices = [enumerate_cosets(pres, subgroup=g).n_cosets
               for g in _edge_subgroups(pres)]
    elapsed = time.perf_counter() - started
    _criterion(2, "subgroup indices", indices == [12, 12, 6, 6] and elapsed < 1.0,
               f"indices={indices}, {elapsed:.3f}s < 1s")


def test_criterion_3_orientability_checks():
    pres = _orbifold()
    names = pres.generator_names

    def hom(pairs):
        constraints = tuple(Z2Constraint(parse_word(w, names), bit)
                            for w, bit in pairs)
        return solve_hom_to_z2(pres, constraints)

    first = hom([("x*y*z^-1*x^-1", 1), ("x*y*x^-1", 1), ("x*y", 1)])
    second = hom([("y", 1), ("x*z", 1)])
    _criterion(3, "orientability checks",
               first.solvable and not second.solvable,
               f"first solvable={first.solvable} with witness {first.assignment}, "
               f"second solvable={second.solvable}")


def test_criterion_4_edge_classification():
    pres = _orbifold()
    result = evaluate_edge_scenario(orbifold_edge_scenario(pres), enumerate_cosets(pres))
    expected = frozenset({S(0, 12), N(6, 6)})
    _criterion(4, "edge classification", result.surfaces == expected,
               f"surfaces={sorted(map(str, result.surfaces))}")


def test_criterion_5_dashed_arc_sweep():
    pres = _orbifold()
    scenario = dashed_scenario(pres)

    # the regular table's one enumeration, then the sweep over it
    started = time.perf_counter()
    result = evaluate_dashed_arc_scenario(scenario, enumerate_cosets(pres))
    sweep_s = time.perf_counter() - started

    surfaces_ok = result.surfaces == frozenset({S(5, 12)})
    sweep_ok = {o.sweep_index for o in result.per_pattern} <= set(range(120))
    indices_ok = all(o.boundary == 12 for o in result.per_pattern)
    oriented_ok = all(o.orientable for o in result.per_pattern)
    ok = surfaces_ok and sweep_ok and indices_ok and oriented_ok and sweep_s < 10.0
    _criterion(5, "dashed-arc sweep", ok,
               f"surfaces={sorted(map(str, result.surfaces))}, "
               f"admissible={len({o.sweep_index for o in result.per_pattern})}/120, "
               f"all-index-12={indices_ok}, all-oriented={oriented_ok}, "
               f"enumeration and sweep {sweep_s:.2f}s < 10s")


def test_criterion_6_family_15e():
    started = time.perf_counter()
    bad = []
    for n in range(3, 51):
        a = evaluate_family(FAMILY_15E, n, "A")
        b = evaluate_family(FAMILY_15E, n, "B")
        expected_b = S((n - 1) // 2, 1) if n % 2 else S((n - 2) // 2, 2)
        if a != S(0, n) or b != expected_b:
            bad.append(n)
    elapsed = time.perf_counter() - started
    _criterion(6, "family 15E", not bad and elapsed < 5.0,
               f"n=3..50 both embeddings, mismatches={bad}, {elapsed:.2f}s < 5s")


def test_criterion_7_family_19():
    started = time.perf_counter()
    bad = [n for n in range(3, 51)
           if evaluate_family(FAMILY_19, n) != S((n - 1) * (n - 2) // 2, n)]
    elapsed = time.perf_counter() - started
    _criterion(7, "family 19", not bad and elapsed < 10.0,
               f"n=3..50, mismatches={bad}, {elapsed:.2f}s < 10s")


def test_criterion_8_table_verification():
    results = verify_table()
    failures = [r for r in results if not r.passed]
    names = {r.name for r in results}

    fixed_alphas = (2, 3, 4, 5, 9, 11, 25, 97, 121, 241,   # 12(a-1)
                    7, 49,                                  # 8(a-1)
                    16, 19, 361,                            # 20(a-1)/3
                    21, 481,                                # 6(a-1)
                    41, 1681, 841, 29)
    missing = [a for a in fixed_alphas if f"a={a}:m-formula" not in names]

    # coverage counts recomputed from the frozen class definitions
    excluded_roots = {3, 5, 7, 11, 19, 41}
    square_checks = sum(1 for k in range(2, 51) if k not in excluded_roots)
    exceptional = {2, 3, 4, 5, 9, 11, 25, 97, 121, 241, 7, 49,
                   16, 19, 361, 21, 481, 41, 1681}
    remaining_checks = 0
    for alpha in range(2, 501):
        root = math.isqrt(alpha)
        if alpha in exceptional:
            continue
        if root * root == alpha and root not in excluded_roots:
            continue
        remaining_checks += 1
    got_square = sum(1 for n in names if n.startswith("square k="))
    got_remaining = sum(1 for n in names if n.startswith("remaining a=")
                        and n.endswith("m-formula"))
    ok = (not failures and not missing
          and got_square == 2 * square_checks
          and got_remaining == remaining_checks)
    _criterion(8, "table verification", ok,
               f"{len(results)} checks, {len(failures)} failures, "
               f"missing-rows={missing}, square-checks={got_square} "
               f"(wanted {2 * square_checks}), remaining-checks={got_remaining} "
               f"(wanted {remaining_checks})")


def test_criterion_9_kernel_properties():
    problems = []

    # (a) completeness + relator closure scans on freshly built tables
    pres = _orbifold()
    tables = [(pres, ())]
    tables += [(pres, g) for g in _edge_subgroups(pres)]
    for q in (3, 4, 5):
        tri = load_presentation(
            f"generators: x y\nrelators: x^3 y^2 (x*y)^{q}\n")
        tables.append((tri, ()))
    for p, subgroup in tables:
        try:
            verify_coset_table(enumerate_cosets(p, subgroup=subgroup), p)
        except AssertionError as exc:
            problems.append(f"scan: {exc}")

    # (b) index invariance under 100 random conjugations
    rng = random.Random(926)
    base = _edge_subgroups(pres)[0]
    alphabet = [1, -1, 2, -2, 3, -3]
    for i in range(100):
        c = Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 8))))
        moved = tuple(conjugate(w, c) for w in base)
        index = enumerate_cosets(pres, subgroup=moved).n_cosets
        if index != 12:
            problems.append(f"conjugation {i}: index {index}")

    # (c) triangle groups against the independent oracle
    for q, expected in ((3, 12), (4, 24), (5, 60)):
        tri = load_presentation(
            f"generators: x y\nrelators: x^3 y^2 (x*y)^{q}\n")
        enumerated = group_order(tri)
        oracle = len(mulclose(triangle_rotation_generators(q)))
        if not (enumerated == oracle == expected):
            problems.append(f"triangle q={q}: enumerated {enumerated}, "
                            f"oracle {oracle}, expected {expected}")

    # (d) 200 randomized Z2-solvability instances against brute force
    rng = random.Random(927)
    alphabet_for = {}
    for i in range(200):
        n = rng.randint(1, 10)
        if n not in alphabet_for:
            alphabet_for[n] = [s * j for j in range(1, n + 1) for s in (1, -1)]
        letters = alphabet_for[n]

        def rand_word(max_len):
            return Word(tuple(rng.choice(letters)
                              for _ in range(rng.randint(0, max_len))))

        relators = tuple(w for w in (rand_word(12) for _ in range(rng.randint(0, 5))) if w)
        p = Presentation(tuple(f"g{j}" for j in range(n)), relators)
        constraints = tuple(Z2Constraint(rand_word(8), rng.randint(0, 1))
                            for _ in range(rng.randint(0, 5)))
        result = solve_hom_to_z2(p, constraints)
        rel_vecs = [exponent_vector_mod2(r, n) for r in relators]
        con_vecs = [(exponent_vector_mod2(c.word, n), c.target) for c in constraints]
        brute = brute_force_hom2(rel_vecs, con_vecs, n)
        if result.solvable != (brute is not None):
            problems.append(f"hom2 instance {i}: solver {result.solvable}, "
                            f"brute force {brute is not None}")

    _criterion(9, "kernel properties", not problems,
               f"scans+100 conjugations+3 triangle groups+200 hom2 instances, "
               f"problems={problems[:3]}")
