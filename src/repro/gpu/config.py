"""Hardware configuration objects for the GPU timing model.

The model follows the architecture sketch in Figure 2 of the paper: a GPU is
a set of *streaming multiprocessors* (SMs), each with private execution
resources (threads, registers, shared memory, block slots, issue
throughput), plus GPU-wide shared resources (DRAM bandwidth, a global
kernel scheduler, and a host-to-GPU command/dispatch path).

Two presets are provided:

* :func:`GPUConfig.gpgpusim_like` — the 6-SM configuration used for the
  paper's GPGPU-Sim experiments (Figure 4).
* :func:`GPUConfig.gtx1050ti_like` — a 6-SM configuration with clock and
  bandwidth in the ballpark of the GTX 1050 Ti used for the paper's COTS
  experiments (Figure 5).  The paper notes the COTS GPU "has the same
  number of SMs as the simulated platform".

Timing in the simulator is expressed in *cycles*; :attr:`GPUConfig.clock_mhz`
converts cycles to wall-clock time for end-to-end (COTS) modelling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["SMConfig", "GPUConfig"]


@dataclass(frozen=True)
class SMConfig:
    """Per-SM resource limits and throughput.

    Attributes:
        max_threads: maximum resident threads per SM.
        max_blocks: maximum resident thread blocks per SM.
        registers: number of 32-bit registers in the SM register file.
        shared_memory: bytes of on-chip shared memory per SM.
        issue_throughput: abstract compute work units the SM retires per
            cycle, shared among resident thread blocks.  ``1.0`` means one
            "work unit" per cycle; kernel descriptors express their compute
            demand in the same unit, so a thread block with
            ``work_per_block == 1000`` alone on an SM takes 1000 cycles of
            compute.
    """

    max_threads: int = 1536
    max_blocks: int = 8
    registers: int = 65536
    shared_memory: int = 49152
    issue_throughput: float = 1.0

    def __post_init__(self) -> None:
        if self.max_threads <= 0:
            raise ConfigurationError("SM must support at least one thread")
        if self.max_blocks <= 0:
            raise ConfigurationError("SM must support at least one block")
        if self.registers <= 0:
            raise ConfigurationError("SM register file must be non-empty")
        if self.shared_memory < 0:
            raise ConfigurationError("SM shared memory cannot be negative")
        if self.issue_throughput <= 0:
            raise ConfigurationError("SM issue throughput must be positive")


@dataclass(frozen=True)
class GPUConfig:
    """Whole-GPU configuration.

    Attributes:
        name: human-readable identifier, used in reports.
        num_sms: number of streaming multiprocessors.
        sm: per-SM limits (see :class:`SMConfig`).
        clock_mhz: core clock, used to convert simulated cycles to seconds.
        dram_bandwidth: GPU-wide DRAM bandwidth in bytes per core cycle,
            shared equally among thread blocks with outstanding memory work.
        dispatch_latency: cycles the host/command processor needs between
            dispatching two consecutive kernels.  This is the source of the
            "intrinsically serial" staggering of redundant kernels noted in
            Section IV-A of the paper.
        allow_kernel_mixing: whether the *default* scheduler may co-locate
            thread blocks of different kernels on one SM (the paper's SM1
            example executes ``tb_1^k1, tb_2^k1, tb_2^k2, tb_4^k2``).
            SRRS/HALF make this irrelevant by construction.
    """

    name: str = "generic-6sm"
    num_sms: int = 6
    sm: SMConfig = field(default_factory=SMConfig)
    clock_mhz: float = 700.0
    dram_bandwidth: float = 48.0
    dispatch_latency: float = 3000.0
    allow_kernel_mixing: bool = True

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ConfigurationError("GPU must have at least one SM")
        if self.clock_mhz <= 0:
            raise ConfigurationError("GPU clock must be positive")
        if self.dram_bandwidth <= 0:
            raise ConfigurationError("DRAM bandwidth must be positive")
        if self.dispatch_latency < 0:
            raise ConfigurationError("dispatch latency cannot be negative")

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------
    @classmethod
    def gpgpusim_like(cls, num_sms: int = 6) -> "GPUConfig":
        """The 6-SM platform modelled with GPGPU-Sim 3.2.2 in the paper."""
        return cls(
            name=f"gpgpusim-{num_sms}sm",
            num_sms=num_sms,
            sm=SMConfig(
                max_threads=1536,
                max_blocks=8,
                registers=32768,
                shared_memory=49152,
                issue_throughput=1.0,
            ),
            clock_mhz=700.0,
            dram_bandwidth=48.0,
            dispatch_latency=3000.0,
        )

    @classmethod
    def gtx1050ti_like(cls) -> "GPUConfig":
        """A GTX-1050-Ti-flavoured 6-SM configuration for COTS modelling."""
        return cls(
            name="gtx1050ti",
            num_sms=6,
            sm=SMConfig(
                max_threads=2048,
                max_blocks=16,
                registers=65536,
                shared_memory=65536,
                issue_throughput=2.0,
            ),
            clock_mhz=1290.0,
            dram_bandwidth=87.0,
            dispatch_latency=8000.0,
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def cycles_to_ms(self, cycles: float) -> float:
        """Convert core cycles to milliseconds at :attr:`clock_mhz`."""
        return cycles / (self.clock_mhz * 1e3)

    @property
    def sm_ids(self) -> range:
        """Iterable of valid SM identifiers (``0 .. num_sms-1``)."""
        return range(self.num_sms)
