"""Thread blocks and their programs.

A simulated thread block runs a *block program*: a callable the SM calls
with the block when it admits it.  The program drives itself through
engine callbacks.  It starts a compute segment with
:meth:`ThreadBlock.begin_compute`, continues in the block's ``_resume``
continuation once that segment drains, and retires the block with
:meth:`ThreadBlock._finish` when it is done.

Kernels come in the paper's two shapes.  Persistent blocks loop
``while (item = schedule())`` until the queues are quiescent (the
megakernel, coarse, fine and hybrid groups; see ``PersistentGroupRunner``).
Host-driven grids (KBK, RTC, dynamic parallelism) give each block one
batch of work, which :func:`one_segment` runs as one compute segment
before the block exits.

Work is measured in *cycles per thread*: a segment of
``cycles_per_thread`` on ``threads`` threads contributes
``cycles_per_thread * threads`` thread-cycles of work to the SM, which
drains it at a rate set by the SM's processor-sharing model (see
:mod:`repro.gpu.sm`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .kernel import KernelSpec

if TYPE_CHECKING:
    from .scheduler import KernelLaunch
    from .sm import StreamingMultiprocessor


class ThreadBlock:
    """One simulated thread block: resources plus a running block program."""

    _ids = iter(range(1, 1 << 60))

    #: Called when a compute segment has drained and its ``min_cycles``
    #: floor has passed; the program sets it before its first segment.
    _resume: Callable[[], None]

    def __init__(
        self,
        kernel: KernelSpec,
        program: Callable[["ThreadBlock"], None],
        sm_filter: Optional[frozenset[int]] = None,
        tag: object = None,
    ) -> None:
        self.block_id = next(ThreadBlock._ids)
        self.kernel = kernel
        self.sm_filter = sm_filter
        self.tag = tag
        self._program = program
        self.sm: Optional[StreamingMultiprocessor] = None  # set on admission
        self.launch: Optional[KernelLaunch] = None  # set by the device on launch
        self._compute_started_at: float | None = None
        self._pending_min_cycles: float = 0.0

    def start(self) -> None:
        """Run the block program (called by the SM on admission)."""
        assert self.sm is not None, "block must be admitted to an SM first"
        self._program(self)

    def begin_compute(
        self, cycles_per_thread: float, threads: int, min_cycles: float
    ) -> None:
        """Charge the SM ``cycles_per_thread * threads`` of work and call
        ``self._resume()`` when it drains, but no sooner than
        ``min_cycles`` after now (an intra-block critical path: one long
        task among many short ones keeps the block alive)."""
        sm = self.sm
        assert sm is not None
        self._compute_started_at = sm.engine.now
        self._pending_min_cycles = min_cycles
        sm.add_work(
            self,
            work=cycles_per_thread * threads,
            threads=threads,
            on_done=self._compute_done,
        )

    def _compute_done(self) -> None:
        """Work drained; honour the min-duration constraint then resume."""
        assert self.sm is not None and self._compute_started_at is not None
        engine = self.sm.engine
        elapsed = engine.now - self._compute_started_at
        remainder = self._pending_min_cycles - elapsed
        if remainder > 1e-9:
            engine.schedule_call(remainder, self._resume)
        else:
            self._resume()

    def _finish(self) -> None:
        sm = self.sm
        assert sm is not None
        sm.retire(self)


def one_segment(
    block: ThreadBlock,
    cycles_per_thread: float,
    threads: int,
    min_cycles: float,
    after: Optional[Callable[[], None]] = None,
) -> None:
    """The whole program of a host-driven block: one compute segment,
    then ``after()`` if given, then exit."""
    if after is None:
        block._resume = block._finish
    else:

        def resume() -> None:
            after()
            block._finish()

        block._resume = resume
    block.begin_compute(cycles_per_thread, threads, min_cycles)
