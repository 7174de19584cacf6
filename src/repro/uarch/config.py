"""Machine configurations: the paper's Table 2 base machine, the 28-point
L1 data-cache sweep (Section 5.1), and the five design changes of
Section 5.2 / Table 3."""

from dataclasses import dataclass, field, replace
from numbers import Integral

from repro.uarch.branch_predictors import PREDICTOR_KINDS
from repro.uarch.cache import CacheConfig

#: Fields that must be >= 1 (structure sizes and functional-unit counts).
_POSITIVE_FIELDS = ("width", "fetch_queue", "rob_size", "lsq_size",
                    "n_int_alu", "n_int_mul", "n_fp_alu", "n_fp_mul",
                    "n_mem_ports")

#: Fields that must be >= 0 (latencies and penalties, in cycles).
_NON_NEGATIVE_FIELDS = ("l1_latency", "l2_latency", "memory_latency",
                        "mispredict_penalty", "latency_ialu",
                        "latency_imul", "latency_idiv", "latency_falu",
                        "latency_fmul", "latency_fdiv")


@dataclass(frozen=True)
class MachineConfig:
    """Everything the pipeline timing and power models consume.

    Defaults reproduce the paper's Table 2 base configuration: 1-wide
    out-of-order, 16-entry reorder buffer, 8-entry load/store queue,
    2 integer ALUs + 1 FP multiplier + 1 FP ALU, 16KB/2-way L1 caches,
    64KB/4-way unified L2, 40-cycle memory, 2-level GAp predictor.
    """

    name: str = "base"
    width: int = 1  # fetch = decode = issue = commit width
    fetch_queue: int = 8
    rob_size: int = 16
    lsq_size: int = 8
    n_int_alu: int = 2
    n_int_mul: int = 1
    n_fp_alu: int = 1
    n_fp_mul: int = 1
    n_mem_ports: int = 1
    in_order: bool = False
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(16 * 1024, 2, 32))
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(16 * 1024, 2, 32))
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 4, 64))
    l1_latency: int = 1
    l2_latency: int = 8
    memory_latency: int = 40
    predictor: str = "gap"
    predictor_kwargs: dict = field(default_factory=dict)
    mispredict_penalty: int = 5
    # Operation latencies per instruction class (loads come from caches).
    latency_ialu: int = 1
    latency_imul: int = 3
    latency_idiv: int = 12
    latency_falu: int = 2
    latency_fmul: int = 4
    latency_fdiv: int = 12

    def __post_init__(self):
        for name in _POSITIVE_FIELDS + _NON_NEGATIVE_FIELDS:
            value = getattr(self, name)
            low = 1 if name in _POSITIVE_FIELDS else 0
            if isinstance(value, bool) or not isinstance(value, Integral) \
                    or value < low:
                raise ValueError(f"MachineConfig {name}={value!r} must be "
                                 f"an integer >= {low}")
        if self.predictor not in PREDICTOR_KINDS:
            raise ValueError(
                f"MachineConfig predictor={self.predictor!r} is unknown "
                f"(known: {', '.join(PREDICTOR_KINDS)})")

    def renamed(self, name, **changes):
        """A copy with a new name and the given field overrides."""
        return replace(self, name=name, **changes)


#: The paper's Table 2 machine.
BASE_CONFIG = MachineConfig()


def cache_sweep_configs(line=32):
    """The 28 L1 D-cache geometries of Section 5.1.

    Sizes 256B..16KB by powers of two, each direct-mapped, 2-way, 4-way,
    and fully associative; 32-byte lines; LRU.  The first entry (256B
    direct-mapped) is the reference point for relative miss-rate deltas.
    """
    configs = []
    for size_kb in (0.25, 0.5, 1, 2, 4, 8, 16):
        size = int(size_kb * 1024)
        for assoc in (1, 2, 4, "full"):
            configs.append(CacheConfig(size, assoc, line))
    return configs


#: Precomputed sweep used by the Figure 4/5 experiments.
CACHE_SWEEP = cache_sweep_configs()


def design_changes(base=BASE_CONFIG):
    """The five Section 5.2 design changes, applied to ``base``.

    1. double ROB and LSQ entries;
    2. halve the L1 D-cache;
    3. double fetch/decode/issue width;
    4. replace the 2-level predictor with always-not-taken;
    5. switch issue to in-order.
    """
    return [
        base.renamed("2x-rob-lsq", rob_size=base.rob_size * 2,
                     lsq_size=base.lsq_size * 2),
        base.renamed("half-l1d",
                     l1d=CacheConfig(base.l1d.size // 2, base.l1d.assoc,
                                     base.l1d.line)),
        base.renamed("2x-width", width=base.width * 2),
        base.renamed("nottaken-bpred", predictor="nottaken"),
        base.renamed("in-order", in_order=True),
    ]


#: Precomputed design-change list used by Table 3 / Figures 8-9.
DESIGN_CHANGES = design_changes()
