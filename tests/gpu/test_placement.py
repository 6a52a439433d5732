"""Block placement: the least-loaded admissible SM, and blocked launches."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.block import ThreadBlock, one_segment
from repro.gpu.device import GPUDevice
from repro.gpu.kernel import KernelSpec
from repro.gpu.specs import K20C

#: Footprints that run into different K20c limits: the register file
#: (255 x 256 fits once, 64 x 512 twice), shared memory (three 16 KB
#: blocks), threads (two 1024-thread blocks) and block slots.
KERNELS = (
    KernelSpec("regs", registers_per_thread=255, threads_per_block=256),
    KernelSpec("half", registers_per_thread=64, threads_per_block=512),
    KernelSpec(
        "smem", registers_per_thread=32, threads_per_block=128,
        shared_mem_per_block=16 * 1024,
    ),
    KernelSpec("wide", registers_per_thread=16, threads_per_block=1024),
    KernelSpec("tiny", registers_per_thread=32, threads_per_block=64),
)

NUM_SMS = 5


def _idle(block):
    """A block program that never ends: the block stays resident."""


def _filters():
    ids = st.integers(min_value=0, max_value=NUM_SMS - 1)
    return st.one_of(
        st.none(),
        ids.map(lambda i: frozenset({i})),
        st.frozensets(ids, min_size=1),
    )


@settings(max_examples=200, deadline=None)
@given(
    residency=st.lists(
        st.lists(st.sampled_from(KERNELS), max_size=8),
        min_size=NUM_SMS,
        max_size=NUM_SMS,
    ),
    heads=st.lists(
        st.tuples(_filters(), st.sampled_from(KERNELS)), min_size=1, max_size=6
    ),
)
def test_pick_is_least_loaded_admissible_sm(residency, heads):
    device = GPUDevice(K20C.with_overrides(num_sms=NUM_SMS))
    for sm, kernels in zip(device.sms, residency):
        for kernel in kernels:
            if sm.can_admit(sm.footprint(kernel)):
                sm.admit(ThreadBlock(kernel, _idle))
    for sm_filter, kernel in heads:
        block = ThreadBlock(kernel, _idle, sm_filter=sm_filter)
        fits = [
            sm
            for sm in device.sms
            if (sm_filter is None or sm.sm_id in sm_filter)
            and sm.can_admit(sm.footprint(kernel))
        ]
        expected = min(
            fits, key=lambda sm: (sm.threads_used, sm.sm_id), default=None
        )
        assert device.scheduler._pick_sm(block) is expected


def test_blocked_launch_waits_for_a_retirement_in_its_filter():
    """A launch whose head block fits no SM of its filter is placed at the
    first retirement on one of those SMs, and is not scanned again when a
    block retires anywhere else."""
    device = GPUDevice(K20C.with_overrides(num_sms=2))
    hog = KERNELS[0]  # one block fills an SM's register file
    retired = {}
    placed = []

    def program(cycles, name):
        def run(block):
            placed.append((name, block.sm.sm_id, device.engine.now))
            one_segment(
                block,
                cycles,
                hog.threads_per_block,
                0.0,
                after=lambda: retired.setdefault(name, device.engine.now),
            )

        return run

    def launch(cycles, name, sm_id):
        return device.launch(
            hog,
            program(cycles, name),
            1,
            stream=device.create_stream(),
            sm_filter=frozenset({sm_id}),
            charge_host=False,
        )

    launch(2000.0, "hog0", 0)
    launch(500.0, "hog1", 1)
    waiting = launch(100.0, "waiting", 0)

    scheduler = device.scheduler
    pick = scheduler._pick_sm
    scans = []

    def counting_pick(block):
        if block.launch is waiting:
            scans.append(device.engine.now)
        return pick(block)

    scheduler._pick_sm = counting_pick
    device.synchronize(charge_host=False)

    assert retired["hog1"] < retired["hog0"]
    # Scanned when it arrived, then only at hog0's retirement on SM 0.
    assert scans == [placed[0][2], retired["hog0"]]
    assert placed[-1] == ("waiting", 0, retired["hog0"])
