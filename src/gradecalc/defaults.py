"""Default verification configurations for the built-in groups.

Each entry fixes the grid geometry and interior margin of the heat and
potential plans, and the check times used by the verification suite.  No
plan carries a dissipation term.  The boxes are sized so that every identity
is tested in the regime where the grid supports it: mass at small times (the
kernel is contained and conservation is structural), the semigroup identity
at moderate times, and self-similarity between the heat plan and its
dilate.  The Heisenberg heat grid is periodic in the central coordinate,
which selects the central-Fourier plan of ``heatflow``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Grid


@dataclass(frozen=True)
class PlanSettings:
    """The grid of one spectral plan and the margin of its interior.

    ``Grid`` is a frozen dataclass, so two settings are equal exactly when
    their grids and margins are.
    """

    grid: Grid
    margin: int = 4


@dataclass(frozen=True)
class CheckTimes:
    """The times at which the suite checks the heat identities."""

    mass_times: tuple = (0.01, 0.02)
    semigroup_pairs: tuple = ((0.1, 0.1),)
    symmetry_time: float = 0.15
    selfsim_times: tuple = (0.1, 0.2)


@dataclass(frozen=True)
class GroupDefaults:
    heat: PlanSettings
    potential: PlanSettings | None = None
    times: CheckTimes = CheckTimes()


DEFAULTS = {
    "abelian1": GroupDefaults(
        heat=PlanSettings(Grid((8.0,), (161,))),
        potential=PlanSettings(Grid((8.0,), (641,))),
        times=CheckTimes(mass_times=(0.01, 0.02, 0.05, 0.1)),
    ),
    "abelian2": GroupDefaults(
        heat=PlanSettings(Grid((4.0, 4.0), (71, 71))),
        times=CheckTimes(mass_times=(0.01, 0.02, 0.05, 0.1)),
    ),
    # 29 nodes per axis: the interior 21^3 is a Kronecker plan
    "abelian3": GroupDefaults(
        heat=PlanSettings(Grid((3.0, 3.0, 3.0), (29, 29, 29))),
        potential=PlanSettings(Grid((1.3, 1.3, 1.3), (27, 27, 27)), margin=3),
        times=CheckTimes(mass_times=(0.01, 0.02, 0.05)),
    ),
    # 31 samples over a central period of 1.1.  Half a period out, the
    # whole-group kernel is below 1e-3 of its peak at the check times
    # (t <= 0.2), so the periodic images barely move it.
    "heisenberg": GroupDefaults(
        heat=PlanSettings(Grid((2.7, 2.7, 0.55 * 30 / 31), (33, 33, 31), periodic=(2,))),
        potential=PlanSettings(Grid((2.7, 2.7, 0.95), (19, 19, 53))),
    ),
}

# Why a built-in group has no default grids.  The stencils of calculus reach 2
# nodes per letter pair of a word, so a grid needs that many margin nodes per side.
NO_DEFAULTS_WHY = {
    "heisenberg358": (
        "its default operator has degree 240; its words X^80, Y^48 and T^30 need margins "
        "of 80, 48 and 30 nodes per side, and the smallest such grid, 161 x 97 x 61 "
        f"points, exceeds the {Grid.MAX_POINTS}-point grid cap"
    ),
}
