"""Cost and power accounting for the optical fabric (Section 2.10).

The paper reports that OCSes *plus all underlying optical components*
(optics modules, fiber, OCS infrastructure) come to under 5% of TPU v4
supercomputer capital cost and under 3% of system power.  Google does not
publish absolute prices, so the defaults below are public-ballpark
estimates (datacenter 400G-class transceiver and commercial MEMS OCS
pricing, TPU-class accelerator system cost); what we *reproduce* is the
paper's claim that the optics fraction lands under the 5%/3% ceilings.
All parameters are explicit so users can plug in their own quotes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ocs.fabric import OCSFabric


@dataclass(frozen=True)
class OpticsCostModel:
    """Unit costs/powers for the optical fabric and the host system."""

    # --- optics -------------------------------------------------------------
    ocs_cost: float = 60_000.0            # $ per 136-port MEMS switch
    transceiver_cost: float = 400.0       # $ per optical module (one fiber end)
    fiber_cost: float = 60.0              # $ per installed fiber run
    ocs_power: float = 50.0               # W to hold MEMS mirrors + control
    transceiver_power: float = 3.5        # W per active optical module
    # --- the rest of the machine ---------------------------------------------
    system_cost_per_chip: float = 30_000.0  # $ per deployed chip (chip+host+rack share)
    system_power_per_chip: float = 290.0    # W per chip incl. host/cooling share


def default_cost_model() -> OpticsCostModel:
    """The documented default parameterization."""
    return OpticsCostModel()


@dataclass
class OpticsBill:
    """Computed totals for one machine."""

    num_chips: int
    switches: int
    fibers: int
    transceivers: int
    optics_cost: float
    system_cost: float
    optics_power: float
    system_power: float

    @property
    def cost_fraction(self) -> float:
        """Optics share of total machine capital cost."""
        return self.optics_cost / (self.optics_cost + self.system_cost)

    @property
    def power_fraction(self) -> float:
        """Optics share of total machine power."""
        return self.optics_power / (self.optics_power + self.system_power)


def optics_bill(fabric: OCSFabric, *, chips_per_block: int = 64,
                model: OpticsCostModel | None = None) -> OpticsBill:
    """Price the optical fabric of a machine built around `fabric`."""
    if model is None:
        model = default_cost_model()
    budget = fabric.optical_link_budget()
    num_chips = fabric.num_blocks * chips_per_block
    optics_cost = (budget["switches"] * model.ocs_cost
                   + budget["transceiver_ends"] * model.transceiver_cost
                   + budget["fibers"] * model.fiber_cost)
    optics_power = (budget["switches"] * model.ocs_power
                    + budget["transceiver_ends"] * model.transceiver_power)
    return OpticsBill(
        num_chips=num_chips,
        switches=budget["switches"],
        fibers=budget["fibers"],
        transceivers=budget["transceiver_ends"],
        optics_cost=optics_cost,
        system_cost=num_chips * model.system_cost_per_chip,
        optics_power=optics_power,
        system_power=num_chips * model.system_power_per_chip,
    )
