"""Default verification configurations for the built-in groups.

Each entry fixes the grid geometry, interior margin, dissipation strength and
the check times used by the verification suite.  The boxes are sized so that
every identity is tested in the regime where the grid supports it: mass at
small times (the kernel is contained and conservation is structural), the
semigroup identity at moderate times, and self-similarity across a pair of
dilation-related solves.  The Heisenberg heat grid is periodic in the central
coordinate, which selects the central-Fourier plan of ``heatflow``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import Grid


@dataclass(frozen=True)
class HeatDefaults:
    half_widths: tuple
    counts: tuple
    margin: int = 4
    reg_strength: float = 0.05
    mass_times: tuple = (0.01, 0.02)
    family_times: tuple = (0.1, 0.2)
    semigroup_pairs: tuple = ((0.1, 0.1),)
    symmetry_time: float = 0.15
    selfsim_times: tuple = (0.1, 0.2)
    periodic: tuple = ()

    def grid(self) -> Grid:
        return Grid(self.half_widths, self.counts, self.periodic)


HEAT_DEFAULTS = {
    "abelian1": HeatDefaults(
        half_widths=(8.0,),
        counts=(161,),
        mass_times=(0.01, 0.02, 0.05, 0.1),
    ),
    "abelian2": HeatDefaults(
        half_widths=(4.0, 4.0),
        counts=(71, 71),
        mass_times=(0.01, 0.02, 0.05, 0.1),
    ),
    # 29 nodes per axis (interior 21^3, a Kronecker plan): at 25 the mass
    # defect at t = 0.01 was 1.1e-3, above its 1e-3 threshold; here 3.9e-4
    "abelian3": HeatDefaults(
        half_widths=(3.0, 3.0, 3.0),
        counts=(29, 29, 29),
        mass_times=(0.01, 0.02, 0.05),
    ),
    # 31 samples over a central period of 1.1.  Half a period out, the
    # whole-group kernel is below 1e-3 of its peak at the check times
    # (t <= 0.2), so the periodic images barely move it.
    "heisenberg": HeatDefaults(
        half_widths=(2.7, 2.7, 0.55 * 30 / 31),
        counts=(33, 33, 31),
        reg_strength=0.0,
        periodic=(2,),
    ),
}


@dataclass(frozen=True)
class PotentialDefaults:
    """Grid and plan settings for the potential-kernel computations.

    The dissipation strength is much larger than for the heat checks: the
    kernels weight each eigenmode by an inverse power of its eigenvalue, so
    the spurious sawtooth modes of the composed stencils must sit at the top
    of the spectrum (not merely decay fast) or they pollute the near field.
    """

    half_widths: tuple
    counts: tuple
    margin: int = 4
    reg_strength: float = 1.0

    def grid(self) -> Grid:
        return Grid(self.half_widths, self.counts)


POTENTIAL_DEFAULTS = {
    "abelian1": PotentialDefaults(half_widths=(8.0,), counts=(641,)),
    "abelian3": PotentialDefaults(
        half_widths=(1.3, 1.3, 1.3), counts=(27, 27, 27), margin=3
    ),
    "heisenberg": PotentialDefaults(
        half_widths=(2.7, 2.7, 0.95), counts=(19, 19, 53)
    ),
}


def potential_defaults(name: str) -> PotentialDefaults:
    try:
        return POTENTIAL_DEFAULTS[name]
    except KeyError:
        raise KeyError(f"no default potential configuration for group {name!r}") from None


def heat_defaults(name: str) -> HeatDefaults:
    try:
        return HEAT_DEFAULTS[name]
    except KeyError:
        raise KeyError(f"no default heat configuration for group {name!r}") from None
