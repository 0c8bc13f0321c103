"""FPGA resource accounting — reproduces Table 1 of the paper.

The paper reports utilization of the deployed system on a Xilinx Alveo u250
(Table 1): the 6-region configuration consumes 24% of CLB LUTs, 23% of
registers, 29% of BRAM tiles and no DSPs; individual operators add small
per-region increments.

We model the device inventory and a component cost table so that (a) the
bench regenerates Table 1 and (b) deploying pipelines at runtime tracks
whether a configuration still fits ("Farview does not utilize more than
30% of the total on-chip resources", §6.1).

Decomposition assumption: the paper only reports the aggregate for the
6-region configuration.  We split it into a fixed *shell* share (network
stack + memory stack/MMU + management) and a per-region share such that
shell + 6 x region reproduces the published row; the split is documented
in the constants below and the invariant is tested.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import ConfigurationError, OperatorError

#: Xilinx Alveo u250 device inventory (product brief).
U250_LUTS = 1_728_000
U250_REGS = 3_456_000
U250_BRAM_TILES = 2_688
U250_DSPS = 12_288


@dataclass(frozen=True)
class ResourceVector:
    """Resource usage as fractions of the whole device (0..1 per field)."""

    luts: float = 0.0
    regs: float = 0.0
    bram: float = 0.0
    dsps: float = 0.0

    def __post_init__(self) -> None:
        for field_name in ("luts", "regs", "bram", "dsps"):
            value = getattr(self, field_name)
            if value < 0 or value > 1:
                raise ConfigurationError(
                    f"{field_name} fraction out of [0, 1]: {value}")

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            min(1.0, self.luts + other.luts),
            min(1.0, self.regs + other.regs),
            min(1.0, self.bram + other.bram),
            min(1.0, self.dsps + other.dsps),
        )

    def scaled(self, factor: float) -> "ResourceVector":
        if factor < 0:
            raise ConfigurationError(f"negative scale factor: {factor}")
        return ResourceVector(self.luts * factor, self.regs * factor,
                              self.bram * factor, self.dsps * factor)

    def as_percentages(self) -> tuple[float, float, float, float]:
        return (self.luts * 100, self.regs * 100,
                self.bram * 100, self.dsps * 100)


#: Aggregate published in Table 1 for the full 6-region system.
SYSTEM_6_REGIONS = ResourceVector(luts=0.24, regs=0.23, bram=0.29, dsps=0.0)

#: Shell share (network stack + memory stack/MMU + management logic).  The
#: paper attributes "the majority of the utilized on-chip memory ... to the
#: memory management unit and the state keeping structures of the operator
#: and network stack" (§6.1) — hence the BRAM-heavy shell.
SHELL = ResourceVector(luts=0.14, regs=0.14, bram=0.20, dsps=0.0)

#: Per-region infrastructure share: (system - shell) / 6.
PER_REGION = ResourceVector(
    luts=(SYSTEM_6_REGIONS.luts - SHELL.luts) / 6,
    regs=(SYSTEM_6_REGIONS.regs - SHELL.regs) / 6,
    bram=(SYSTEM_6_REGIONS.bram - SHELL.bram) / 6,
    dsps=0.0,
)

#: Per-operator costs, one row each in Table 1 ("per dynamic region").
#: "<1%" entries are modelled as 0.4% so they render as "<1" in the report
#: while keeping a fully loaded 6-region deployment inside the paper's
#: "not more than 30%" envelope (§6.1).  Note Table 1 rows are pipeline
#: *stages*: "Projection/Selection/Aggregation" is one combined stage.
_LT1 = 0.004
OPERATOR_COSTS: dict[str, ResourceVector] = {
    "projection": ResourceVector(luts=_LT1, regs=_LT1),
    "selection": ResourceVector(luts=_LT1, regs=_LT1),
    "aggregation": ResourceVector(luts=_LT1, regs=_LT1),
    "regex": ResourceVector(luts=0.023, regs=_LT1),
    "distinct": ResourceVector(luts=0.021, regs=0.013, bram=0.08),
    "groupby": ResourceVector(luts=0.021, regs=0.013, bram=0.08),
    "encryption": ResourceVector(luts=0.036, regs=_LT1),
    "decryption": ResourceVector(luts=0.036, regs=_LT1),
    "packing": ResourceVector(luts=_LT1, regs=_LT1),
    "sending": ResourceVector(luts=_LT1, regs=_LT1),
    "smart_addressing": ResourceVector(luts=_LT1, regs=_LT1),
    "join_small_table": ResourceVector(luts=0.021, regs=0.013, bram=0.08),
}

#: Table 1 row labels -> operator keys they summarize.
TABLE1_OPERATOR_ROWS: list[tuple[str, str]] = [
    ("Projection/Selection/Aggregation", "selection"),
    ("Regular expression", "regex"),
    ("Distinct/Group by", "distinct"),
    ("En(de)cryption", "encryption"),
    ("Packing/Sending", "packing"),
]


def operator_cost(name: str) -> ResourceVector:
    if name not in OPERATOR_COSTS:
        raise OperatorError(
            f"unknown operator {name!r}; known: {sorted(OPERATOR_COSTS)}")
    return OPERATOR_COSTS[name]


def system_cost(regions: int) -> ResourceVector:
    """Shell + infrastructure for ``regions`` dynamic regions (no operators)."""
    if regions <= 0:
        raise ConfigurationError(f"regions must be positive: {regions}")
    return SHELL + PER_REGION.scaled(regions)


class ResourceModel:
    """Tracks device utilization as pipelines are deployed into regions."""

    def __init__(self, regions: int = 6):
        self.regions = regions
        self._deployed: dict[int, list[str]] = {}

    def deploy(self, region_index: int, operators: list[str]) -> None:
        if not 0 <= region_index < self.regions:
            raise OperatorError(
                f"region {region_index} out of range [0, {self.regions})")
        for op in operators:
            operator_cost(op)  # validate names
        self._deployed[region_index] = list(operators)

    def undeploy(self, region_index: int) -> None:
        self._deployed.pop(region_index, None)

    def total(self) -> ResourceVector:
        usage = system_cost(self.regions)
        for operators in self._deployed.values():
            for op in operators:
                usage = usage + operator_cost(op)
        return usage

def _fmt_pct(value: float) -> str:
    pct = value * 100
    if pct == 0:
        return "0%"
    if pct < 1:
        return "<1%"
    return f"{pct:.1f}%".replace(".0%", "%")


def render_table1(regions: int = 6) -> str:
    """Render the reproduction of Table 1 as aligned text."""
    lines = []
    header = f"{'Configuration':<38}{'CLB LUTs':>10}{'Regs':>8}{'BRAM':>8}{'DSPs':>8}"
    lines.append(header)
    sys_cost = system_cost(regions)
    lines.append(f"{f'{regions} regions':<38}"
                 f"{_fmt_pct(sys_cost.luts):>10}{_fmt_pct(sys_cost.regs):>8}"
                 f"{_fmt_pct(sys_cost.bram):>8}{_fmt_pct(sys_cost.dsps):>8}")
    lines.append(f"{'Operators (per dynamic region)':<38}"
                 f"{'CLB LUTs':>10}{'Regs':>8}{'BRAM':>8}{'DSPs':>8}")
    for label, key in TABLE1_OPERATOR_ROWS:
        cost = operator_cost(key)
        lines.append(f"{label:<38}"
                     f"{_fmt_pct(cost.luts):>10}{_fmt_pct(cost.regs):>8}"
                     f"{_fmt_pct(cost.bram):>8}{_fmt_pct(cost.dsps):>8}")
    return "\n".join(lines)
