"""Acceptance gate: nine criteria, one test (= one pass/fail line) each.

Criterion 2 exercises the inversion-symmetry defect of the discretized
stratified kernel at its stated tolerance.  The defect is discretization
error, not a group-structure violation; the default Heisenberg heat plan is
the central-Fourier plan on a grid periodic in u, where it stays below the
tolerance and falls as the horizontal spacing shrinks.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from gradecalc.algebra import bch_group_law, builtin_group, invert
from gradecalc.calculus import sublaplacian
from gradecalc.defaults import DEFAULTS
from gradecalc.geometry import GridFunction, group_convolve, lp_norm
from gradecalc.heatflow import (
    build_family,
    check_mass,
    check_self_similarity,
    check_semigroup,
    check_symmetry,
    heat_kernel,
)
from gradecalc.potentials import (
    bessel_apply_quadrature,
    bessel_kernel,
    fractional_apply,
    riesz_homogeneity_defect,
    riesz_kernel,
)
from gradecalc.sobolev import (
    SobolevError,
    SobolevNormSpec,
    embedding_probe,
    equivalence_probe,
    make_test_family,
    sharpness_probe_H1tilde,
    sobolev_norm,
    sup_embedding_probe,
)
from gradecalc.suite import RunConfig, run_verify

SEED = 0xC0FFEE


def _line(n, slug, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n} ({slug}): {detail}")
    return ok


# ---------------------------------------------------------------------------


def test_criterion_1_exact_algebra():
    t0 = time.monotonic()
    samples = [
        tuple(Fraction(a, b) for a, b in pairs)
        for pairs in [
            ((1, 2), (-2, 3), (3, 5), (-1, 7), (5, 6), (0, 1), (2, 9), (-3, 4)),
            ((-1, 3), (1, 5), (-2, 7), (4, 3), (-5, 2), (1, 6), (0, 1), (7, 8)),
            ((2, 1), (-1, 2), (1, 3), (-3, 5), (1, 4), (-2, 3), (5, 7), (1, 9)),
        ]
    ]
    ok = True
    for name in ("abelian1", "abelian3", "heisenberg", "heisenberg358"):
        law = bch_group_law(builtin_group(name))
        n = law.algebra.n
        w = law.algebra.weights
        x, y, z = (s[:n] for s in samples)
        zero = (Fraction(0),) * n
        assoc = law.multiply_exact(law.multiply_exact(x, y), z) == law.multiply_exact(
            x, law.multiply_exact(y, z)
        )
        inv = law.multiply_exact(x, invert(law, x)) == zero
        r = Fraction(3, 2)
        dil = lambda p: tuple(v * r ** int(wj) for v, wj in zip(p, w))
        hom = dil(law.multiply_exact(x, y)) == law.multiply_exact(dil(x), dil(y))
        ok = ok and assoc and inv and hom
    dt = time.monotonic() - t0
    ok = ok and dt < 5.0
    assert _line(1, "exact algebra", ok, f"rational laws exact, {dt:.2f}s < 5s")


def test_criterion_2_heat_identities(ab1_heat_plan, ab1_law, h1_heat_plan, h1_heat_plan_scaled, h1_law):
    t0 = time.monotonic()
    results = {}
    for tag, plan, plan2, law in (
        ("abelian1", ab1_heat_plan, None, ab1_law),
        ("heisenberg", h1_heat_plan, h1_heat_plan_scaled, h1_law),
    ):
        d, times = DEFAULTS[tag].heat, DEFAULTS[tag].times
        mass = max(check_mass(heat_kernel(plan, t)) for t in times.mass_times)
        fam = build_family(plan, times.family_times)
        semi = check_semigroup(fam, law, pairs=times.semigroup_pairs, mask=plan.mask)
        sym = check_symmetry(heat_kernel(plan, times.symmetry_time))
        if plan2 is None:
            from gradecalc.heatflow import spectral_plan

            t1, t2 = times.selfsim_times
            spec = sublaplacian(law.algebra)
            plan2 = spectral_plan(
                spec,
                law,
                plan.grid.dilated((t2 / t1) ** (1.0 / spec.nu), law.algebra.weights),
                margin=d.margin,
            )
        selfsim = check_self_similarity(plan, plan2, *times.selfsim_times)
        results[tag] = (mass, semi, sym, selfsim)
    dt = time.monotonic() - t0
    ok = dt < 180.0
    for tag, (mass, semi, sym, selfsim) in results.items():
        ok = ok and mass < 1e-3 and semi < 1e-2 and sym < 1e-3 and selfsim < 2e-2
    detail = "; ".join(
        f"{tag}: mass {v[0]:.1e}, semigroup {v[1]:.1e}, symmetry {v[2]:.1e}, selfsim {v[3]:.1e}"
        for tag, v in results.items()
    )
    assert _line(2, "heat identities", ok, f"{detail}; {dt:.0f}s < 180s")


def test_criterion_3_classical_oracles(ab1_pot_plan, ab1_pot_source, ab3_pot_plan, ab3_pot_source):
    # each reference value below is an independent closed form
    g = ab1_pot_plan.grid
    x = g.points()[:, 0]
    t = 0.1
    h = heat_kernel(ab1_pot_plan, t).values
    gauss = np.exp(-(x**2) / (4 * t)) / np.sqrt(4 * np.pi * t)
    e_gauss = np.max(np.abs(h - gauss)[ab1_pot_plan.mask]) / gauss.max()

    k = bessel_kernel(ab1_pot_plan, 2.0, source=ab1_pot_source)
    sel = (np.abs(x) >= 0.3) & (np.abs(x) <= 4.0)
    bes = 0.5 * np.exp(-np.abs(x))
    e_bes = np.max(np.abs(k.values.values - bes)[sel] / bes[sel])

    kr = riesz_kernel(ab3_pot_plan, 2.0, source=ab3_pot_source)
    r = np.linalg.norm(ab3_pot_plan.grid.points(), axis=1)
    sel3 = (r >= 0.3) & (r <= 1.0)
    newt = 1.0 / (4 * np.pi * np.where(r == 0, 1.0, r))
    e_newt = np.max(np.abs(kr.values.values - newt)[sel3] / newt[sel3])

    ok = e_gauss < 1e-2 and e_bes < 2e-2 and e_newt < 3e-2
    assert _line(
        3,
        "classical oracles",
        ok,
        f"Gaussian {e_gauss:.1e} < 1e-2, Bessel {e_bes:.1e} < 2e-2, Newtonian {e_newt:.1e} < 3e-2",
    )


def test_criterion_4_potential_identities(ab1_pot_plan, ab1_pot_source, ab1_law, ab3_pot_plan, ab3_pot_source):
    kernels = {a: bessel_kernel(ab1_pot_plan, float(a), source=ab1_pot_source) for a in (1, 2, 3)}
    e_mass = max(abs(k.integral - 1.0) for k in kernels.values())
    conv = group_convolve(ab1_law, kernels[1].values, kernels[1].values, zero_tol=1e-10)
    e_semi = lp_norm(conv - kernels[2].values, 1)
    kr = riesz_kernel(ab3_pot_plan, 2.0, source=ab3_pot_source)
    e_hom = riesz_homogeneity_defect(kr, (1, 1, 1), 1, 3, r=2, mask=ab3_pot_plan.mask)
    ok = e_mass < 1e-2 and e_semi < 5e-2 and e_hom < 2e-2
    assert _line(
        4,
        "potential identities",
        ok,
        f"mass {e_mass:.1e} < 1e-2, semigroup {e_semi:.1e} < 5e-2, homogeneity {e_hom:.1e} < 2e-2",
    )


def test_criterion_5_fractional_calculus(ab1_pot_plan):
    fam = make_test_family(ab1_pot_plan.grid, n=50, seed=SEED)
    funcs = fam.gridfunctions()
    f0 = funcs[0]
    base = GridFunction(ab1_pot_plan.grid, np.where(ab1_pot_plan.mask, f0.values, 0.0))
    rt = fractional_apply(ab1_pot_plan, -1.5, fractional_apply(ab1_pot_plan, 1.5, f0))
    e_rt = lp_norm(rt - base, 2) / lp_norm(base, 2)
    gap = bessel_apply_quadrature(ab1_pot_plan, 2.0, f0) - fractional_apply(ab1_pot_plan, -2.0, f0)
    e_quad = lp_norm(gap, 2) / lp_norm(f0, 2)
    worst = -np.inf
    a, b = 1.0, 3.0
    for f in funcs:
        na = sobolev_norm(SobolevNormSpec(ab1_pot_plan, a, 2), f)
        n0 = sobolev_norm(SobolevNormSpec(ab1_pot_plan, 0.0, 2), f)
        nb = sobolev_norm(SobolevNormSpec(ab1_pot_plan, b, 2), f)
        worst = max(worst, na - n0 ** (1 - a / b) * nb ** (a / b))
    ok = e_rt < 1e-8 and e_quad < 1e-3 and worst < 1e-8
    assert _line(
        5,
        "fractional calculus",
        ok,
        f"roundtrip {e_rt:.1e} < 1e-8, quadrature gap {e_quad:.1e} < 1e-3, "
        f"interpolation excess {worst:.1e} < 1e-8 over 50 members",
    )


def test_criterion_6_norm_equivalences(h1_pot_plan, h1_pot_plan_L2):
    def run():
        fam = make_test_family(h1_pot_plan.grid, n=50, seed=SEED)
        p1 = equivalence_probe(
            SobolevNormSpec(h1_pot_plan, 2.0, 2, "integer"),
            SobolevNormSpec(h1_pot_plan, 2.0, 2),
            fam,
        )
        p2 = equivalence_probe(
            SobolevNormSpec(h1_pot_plan, 2.0, 2),
            SobolevNormSpec(h1_pot_plan_L2, 2.0, 2),
            fam,
        )
        return p1, p2

    (p1, p2), (q1, q2) = run(), run()
    r1 = p1.max_ratio / p1.min_ratio
    r2 = p2.max_ratio / p2.min_ratio
    stable = (
        abs(p1.min_ratio - q1.min_ratio) < 1e-10
        and abs(p1.max_ratio - q1.max_ratio) < 1e-10
        and abs(p2.min_ratio - q2.min_ratio) < 1e-10
        and abs(p2.max_ratio - q2.max_ratio) < 1e-10
    )
    ok = r1 < 20.0 and r2 < 20.0 and stable
    assert _line(
        6,
        "norm equivalences",
        ok,
        f"integer-vs-spectral ratio {r1:.2f} < 20, operator-independence ratio {r2:.2f} < 20, "
        f"rerun-stable to 1e-10: {stable}",
    )


def test_criterion_7_embeddings(h1_pot_plan):
    fam = make_test_family(h1_pot_plan.grid, n=50, seed=SEED)
    sup1, drift1 = embedding_probe(h1_pot_plan, 2, 4, 1.0, 0.0, fam)
    sup2, drift2 = sup_embedding_probe(h1_pot_plan, 2, 3.0, fam)
    refused = 0
    for call in (
        lambda: embedding_probe(h1_pot_plan, 2, 4, 2.0, 0.0, fam),
        lambda: sup_embedding_probe(h1_pot_plan, 2, 1.0, fam),
    ):
        try:
            call()
        except SobolevError:
            refused += 1
    ok = (
        np.isfinite(sup1)
        and np.isfinite(sup2)
        and drift1 < 2.0
        and drift2 < 2.0
        and refused == 2
    )
    assert _line(
        7,
        "embeddings",
        ok,
        f"(2,4,1,0): sup {sup1:.3g}, drift {drift1:.3f} < 2; (2,3): sup {sup2:.3g}, "
        f"drift {drift2:.3f} < 2; off-relation inputs refused: {refused}/2",
    )


def test_criterion_8_sharpness_weights_358(h1t_law):
    table = sharpness_probe_H1tilde(law=h1t_law)
    col10 = table[10]
    bounded = max(col10) / min(col10)
    inc6 = all(a < b for a, b in zip(table[6], table[6][1:]))
    inc8 = all(a < b for a, b in zip(table[8], table[8][1:]))
    ok = bounded < 5.0 and inc6 and inc8
    assert _line(
        8,
        "sharpness at the critical order",
        ok,
        f"s=10 column spread {bounded:.2f} < 5; s=6 increasing: {inc6}; s=8 increasing: {inc8}",
    )


def test_criterion_9_determinism():
    t0 = time.monotonic()
    r1 = run_verify(RunConfig(group="abelian1", seed=SEED))
    r2 = run_verify(RunConfig(group="abelian1", seed=SEED))
    dt = time.monotonic() - t0
    identical = r1.to_text() == r2.to_text()
    ok = identical and r1.ok and dt < 120.0
    assert _line(
        9,
        "determinism",
        ok,
        f"two verify runs byte-identical: {identical}, all checks pass: {r1.ok}, {dt:.0f}s",
    )
