"""Thread blocks and the block-program command vocabulary.

A simulated thread block runs a *block program*: a Python generator that
yields commands (:class:`Compute`, :class:`Delay`, :class:`Wait`) and is
resumed by the simulator when each command completes.  This generator style
is what lets us express persistent-thread kernels naturally — the paper's
``while (item = schedule()) { ... }`` loop becomes a Python ``while`` loop
that yields a :class:`Wait` on a work queue and a :class:`Compute` per task.

Work is measured in *cycles per thread*: a ``Compute(cycles, threads)``
command contributes ``cycles * threads`` thread-cycles of work to the SM,
which drains it at a rate set by the SM's processor-sharing model (see
:mod:`repro.gpu.sm`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, Optional

from .kernel import KernelSpec

if TYPE_CHECKING:
    from .scheduler import KernelLaunch
    from .sm import StreamingMultiprocessor


@dataclass(frozen=True, slots=True)
class Compute:
    """Execute ``cycles_per_thread`` cycles of work on ``threads`` threads.

    ``min_cycles`` is a lower bound on wall-clock duration regardless of
    throughput; it models intra-block critical paths (one long task among
    many short ones keeps the block alive).
    """

    cycles_per_thread: float
    threads: Optional[int] = None
    min_cycles: float = 0.0


@dataclass(frozen=True, slots=True)
class Delay:
    """Pure latency (e.g. an atomic queue operation): the block is busy but
    consumes no SM compute lanes."""

    cycles: float


@dataclass(frozen=True, slots=True)
class Wait:
    """Suspend until external code resumes the block.

    ``register`` is called with a ``resume(value)`` callable; whoever holds
    it (typically a work queue) calls it when the block should continue.
    The value passed to ``resume`` becomes the result of the ``yield``.
    """

    register: Callable[[Callable[[object], None]], None]


BlockProgram = Generator[object, object, None]


class ThreadBlock:
    """One simulated thread block: resources plus a running block program."""

    _ids = iter(range(1, 1 << 60))

    def __init__(
        self,
        kernel: KernelSpec,
        program_factory: Callable[["ThreadBlock"], BlockProgram],
        sm_filter: Optional[frozenset[int]] = None,
        tag: object = None,
    ) -> None:
        self.block_id = next(ThreadBlock._ids)
        self.kernel = kernel
        self.sm_filter = sm_filter
        self.tag = tag
        self._program_factory = program_factory
        self._program: BlockProgram | None = None
        self.sm: Optional[StreamingMultiprocessor] = None  # set on admission
        self.launch: Optional[KernelLaunch] = None  # set by the device on launch
        self.finished = False
        self._compute_started_at: float | None = None
        self._pending_min_cycles: float = 0.0
        #: The resume continuation, bound once: every Delay/Wait resume
        #: reuses it instead of minting a new bound method (and, on the
        #: typed engine path, a new closure) per command.
        self._resume = self._advance

    @property
    def threads(self) -> int:
        return self.kernel.threads_per_block

    def start(self) -> None:
        """Begin executing the block program (called by the SM on admit).

        A factory may return ``None`` instead of a generator: it has then
        started a *direct-style* program that drives itself through
        callbacks (see ``PersistentGroupRunner``), uses
        :meth:`begin_compute` for Compute segments, and calls
        :meth:`_finish` itself when its loop exits.
        """
        assert self.sm is not None, "block must be admitted to an SM first"
        program = self._program_factory(self)
        if program is None:
            return
        self._program = program
        self._advance(None)

    def _advance(self, value: object) -> None:
        assert self._program is not None
        try:
            command = self._program.send(value)
        except StopIteration:
            self._finish()
            return
        self._dispatch(command)

    def _dispatch(self, command: object) -> None:
        sm = self.sm
        assert sm is not None
        engine = sm.engine
        # Exact-type checks first (the command vocabulary is closed and
        # final in practice); isinstance only as a subclass fallback.
        cls = command.__class__
        if cls is Delay:
            engine.schedule_call(command.cycles, self._resume, None)
            return
        if cls is Wait:
            command.register(self._resume)
            return
        if isinstance(command, Compute):
            threads = command.threads if command.threads is not None else self.threads
            if threads <= 0:
                raise ValueError("Compute.threads must be positive")
            threads = min(threads, self.threads)
            self._compute_started_at = engine.now
            self._pending_min_cycles = command.min_cycles
            sm.add_work(
                self,
                work=command.cycles_per_thread * threads,
                threads=threads,
                on_done=self._compute_done,
            )
        elif isinstance(command, Delay):
            engine.schedule_call(command.cycles, self._resume, None)
        elif isinstance(command, Wait):
            command.register(self._resume)
        else:
            raise TypeError(f"unknown block command: {command!r}")

    def begin_compute(
        self, cycles_per_thread: float, threads: int, min_cycles: float
    ) -> None:
        """Direct-style Compute: charge the SM and resume ``self._resume``
        when the work drains (exactly what ``_dispatch`` does for a
        yielded :class:`Compute`, minus the command object)."""
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
            engine.schedule_call(remainder, self._resume, None)
        else:
            self._resume(None)

    def _finish(self) -> None:
        sm = self.sm
        assert sm is not None
        self.finished = True
        self._program = None
        sm.retire(self)
