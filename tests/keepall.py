"""A keep-all observer: every stored state of a march, fields included.

The marchers keep only the times and ledgers of their stored states and hand
each state to an observer.  Tests that read the fields of every state run
the march with a :class:`KeepAll` observer, through :func:`kept`.
"""

from anisostokes.diagnostics import defect_inequality, defect_proxy, energy_slacks
from anisostokes.transport import pressure_integral


class KeepAll:
    """``observe(t, rho, velocity, ledger)`` keeping every state, u made."""

    def __init__(self):
        self.times, self.densities, self.velocities, self.ledgers = [], [], [], []

    def __call__(self, t, rho, velocity, ledger):
        self.times.append(t)
        self.densities.append(rho)
        self.velocities.append(velocity())
        self.ledgers.append(ledger)

    @property
    def final_density(self):
        return self.densities[-1]

    def states(self):
        """(t, rho, u) of every state, as :func:`commutator_audit` reads them."""
        return zip(self.times, self.densities, self.velocities)

    def energy_slacks(self, gamma):
        """:func:`energy_slacks` of every state against the first one."""
        pressures = [pressure_integral(rho, gamma) for rho in self.densities]
        return energy_slacks(pressures[0], pressures, self.ledgers, gamma)

    def defect_inequality(self, gamma, dp):
        """:func:`defect_inequality` over every state: (lhs, rhs, passed)."""
        rho0 = self.densities[0]
        series = [defect_proxy(rho, gamma, dp) for rho in self.densities]
        return defect_inequality(
            self.times, series, rho0.max(), self.ledgers[-1], rho0.grid, gamma, dp
        )


def kept(driver, *args, **kwargs):
    """``driver(*args, **kwargs)`` observed by a fresh :class:`KeepAll`;
    returns the driver's result and the observer."""
    states = KeepAll()
    return driver(*args, observe=states, **kwargs), states
