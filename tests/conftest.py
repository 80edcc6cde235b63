"""Shared fixtures: group laws and the expensive spectral plans, built once."""

import numpy as np
import pytest
import sympy as sp

from gradecalc.algebra import bch_group_law, builtin_group
from gradecalc.calculus import power, sublaplacian
from gradecalc.defaults import DEFAULTS
from gradecalc.heatflow import HeatKernelSource, spectral_plan

SEED = 0xC0FFEE


def _as_sympy(p, gens):
    return sp.Add(
        *(
            sp.Rational(c.numerator, c.denominator) * sp.Mul(*(g**k for g, k in zip(gens, e)))
            for e, c in p.terms.items()
        )
    )


@pytest.fixture(scope="session")
def as_sympy():
    """A ``Poly`` with rational coefficients as a sympy expression in ``gens``:
    sympy is the tests' independent oracle for the exact polynomials."""
    return _as_sympy


@pytest.fixture(scope="session")
def ab1_law():
    return bch_group_law(builtin_group("abelian1"))


@pytest.fixture(scope="session")
def ab3_law():
    return bch_group_law(builtin_group("abelian3"))


@pytest.fixture(scope="session")
def h1_law():
    return bch_group_law(builtin_group("heisenberg"))


@pytest.fixture(scope="session")
def h1t_law():
    return bch_group_law(builtin_group("heisenberg358"))


@pytest.fixture(scope="session")
def ab1_heat_plan(ab1_law):
    d = DEFAULTS["abelian1"].heat
    spec = sublaplacian(ab1_law.algebra)
    return spectral_plan(spec, ab1_law, d.grid, margin=d.margin)


@pytest.fixture(scope="session")
def ab1_pot_plan(ab1_law):
    d = DEFAULTS["abelian1"].potential
    spec = sublaplacian(ab1_law.algebra)
    return spectral_plan(spec, ab1_law, d.grid, margin=d.margin)


@pytest.fixture(scope="session")
def ab1_pot_source(ab1_pot_plan):
    return HeatKernelSource(ab1_pot_plan)


@pytest.fixture(scope="session")
def ab3_heat_plan(ab3_law):
    d = DEFAULTS["abelian3"].heat
    spec = sublaplacian(ab3_law.algebra)
    return spectral_plan(spec, ab3_law, d.grid, margin=d.margin)


@pytest.fixture(scope="session")
def ab3_pot_plan(ab3_law):
    d = DEFAULTS["abelian3"].potential
    spec = sublaplacian(ab3_law.algebra)
    return spectral_plan(spec, ab3_law, d.grid, margin=d.margin)


@pytest.fixture(scope="session")
def ab3_pot_source(ab3_pot_plan):
    return HeatKernelSource(ab3_pot_plan)


@pytest.fixture(scope="session")
def h1_heat_plan(h1_law):
    d = DEFAULTS["heisenberg"].heat
    spec = sublaplacian(h1_law.algebra)
    return spectral_plan(spec, h1_law, d.grid, margin=d.margin)


@pytest.fixture(scope="session")
def h1_heat_plan_scaled(h1_law):
    d = DEFAULTS["heisenberg"].heat
    t1, t2 = DEFAULTS["heisenberg"].times.selfsim_times
    spec = sublaplacian(h1_law.algebra)
    r = (t2 / t1) ** (1.0 / spec.nu)
    grid = d.grid.dilated(r, h1_law.algebra.weights)
    return spectral_plan(spec, h1_law, grid, margin=d.margin)


@pytest.fixture(scope="session")
def h1_pot_plan(h1_law):
    d = DEFAULTS["heisenberg"].potential
    spec = sublaplacian(h1_law.algebra)
    return spectral_plan(spec, h1_law, d.grid, margin=d.margin)


@pytest.fixture(scope="session")
def h1_pot_plan_L2(h1_law):
    d = DEFAULTS["heisenberg"].potential
    spec = power(sublaplacian(h1_law.algebra), 2)
    return spectral_plan(spec, h1_law, d.grid, margin=d.margin)
