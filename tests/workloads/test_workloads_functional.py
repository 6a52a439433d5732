"""Functional correctness of all six workloads at quick scale, plus
cross-model output agreement (the schedule-independence guarantee)."""

import numpy as np
import pytest

from repro.core.executor import FunctionalExecutor
from repro.core.models import HybridModel, KBKModel, MegakernelModel
from repro.gpu import GPUDevice, K20C
from repro.workloads.registry import all_workloads, get_workload

WORKLOAD_NAMES = sorted(all_workloads())


def run(spec, model, params):
    pipeline = spec.build_pipeline(params)
    device = GPUDevice(K20C)
    return model.run(
        pipeline, device, FunctionalExecutor(pipeline), spec.initial_items(params)
    )


class TestEachWorkloadQuick:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_baseline_outputs_valid(self, name):
        spec = get_workload(name)
        params = spec.quick_params()
        result = run(spec, spec.baseline_model(params), params)
        spec.check_outputs(params, result.outputs)
        assert result.time_ms > 0

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_megakernel_outputs_valid(self, name):
        spec = get_workload(name)
        params = spec.quick_params()
        result = run(spec, MegakernelModel(), params)
        spec.check_outputs(params, result.outputs)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_versapipe_outputs_valid(self, name):
        spec = get_workload(name)
        params = spec.quick_params()
        pipeline = spec.build_pipeline(params)
        config = spec.versapipe_config(pipeline, K20C, params)
        result = run(spec, HybridModel(config), params)
        spec.check_outputs(params, result.outputs)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_determinism(self, name):
        spec = get_workload(name)
        params = spec.quick_params()
        first = run(spec, MegakernelModel(), params)
        second = run(spec, MegakernelModel(), params)
        assert first.time_ms == second.time_ms


class TestRegistryMetadata:
    def test_six_workloads_registered(self):
        assert len(WORKLOAD_NAMES) == 6

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_paper_numbers_sane(self, name):
        spec = get_workload(name)
        paper = spec.paper
        # Table 2 ordering: VersaPipe fastest, baseline slowest.
        assert paper.versapipe_ms <= paper.megakernel_ms <= paper.baseline_ms
        assert paper.item_bytes > 0

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_item_bytes_match_table2(self, name):
        spec = get_workload(name)
        params = spec.quick_params()
        pipeline = spec.build_pipeline(params)
        bytes_declared = {
            pipeline.stage(s).item_bytes for s in pipeline.stage_names
        }
        assert spec.paper.item_bytes in bytes_declared

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            get_workload("tetris")


class TestPyramidFunctional:
    def test_levels_match_reference_exactly(self):
        from repro.workloads import pyramid

        params = pyramid.PyramidParams(num_images=2, width=128, height=96)
        spec = get_workload("pyramid")
        result = run(spec, MegakernelModel(), params)
        spec.check_outputs(params, result.outputs)
        by_level = {
            (o.image_id, o.level): o.pixels for o in result.outputs
        }
        for image_id in range(2):
            ref = pyramid.reference_pyramid(params, image_id)
            for level, expected in enumerate(ref):
                np.testing.assert_array_equal(
                    by_level[(image_id, level)], expected
                )


class TestCFDFunctional:
    def test_matches_host_reference_bitwise(self):
        from repro.workloads import cfd

        params = cfd.CFDParams(
            num_chunks=2, chunk_cells=128, outer_iterations=4
        )
        spec = get_workload("cfd")
        result = run(spec, MegakernelModel(), params)
        by_id = {s.chunk_id: s for s in result.outputs}
        for chunk_id in range(2):
            ref = cfd.reference_solve(params, chunk_id)
            np.testing.assert_allclose(
                by_id[chunk_id].density, ref.density, rtol=0
            )

    def test_mass_conservation(self):
        from repro.workloads import cfd

        params = cfd.CFDParams(
            num_chunks=3, chunk_cells=256, outer_iterations=10
        )
        spec = get_workload("cfd")
        result = run(spec, KBKModel(), params)
        for state in result.outputs:
            initial = cfd.initial_chunk(params, state.chunk_id)
            assert state.total_mass() == pytest.approx(
                initial.total_mass(), rel=1e-9
            )

    def test_solution_evolves(self):
        from repro.workloads import cfd

        params = cfd.CFDParams(
            num_chunks=1, chunk_cells=128, outer_iterations=5
        )
        final = cfd.reference_solve(params, 0)
        initial = cfd.initial_chunk(params, 0)
        assert not np.allclose(final.density, initial.density)


#: The benchmark's parameter seeding: benchmark seed ``s`` runs a
#: workload at ``seed = default + 1009 * s`` (seed 0 is the default).
_BENCH_SEED_STRIDE = 1009


def _bench_seeded(params, seed):
    import dataclasses

    return dataclasses.replace(
        params, seed=params.seed + _BENCH_SEED_STRIDE * seed
    )


class TestLDPCFunctional:
    def test_decodes_at_good_snr(self):
        from repro.workloads import ldpc

        params = ldpc.LDPCParams(
            n_bits=256, num_frames=10, iterations=15, snr_db=4.0
        )
        spec = get_workload("ldpc")
        result = run(spec, MegakernelModel(), params)
        clean = sum(1 for f in result.outputs if not f.bits.any())
        assert clean == 10

    def test_fails_at_terrible_snr(self):
        from repro.workloads import ldpc

        params = ldpc.LDPCParams(
            n_bits=256, num_frames=10, iterations=10, snr_db=-6.0
        )
        pipeline = get_workload("ldpc").build_pipeline(params)
        device = GPUDevice(K20C)
        result = MegakernelModel().run(
            pipeline,
            device,
            FunctionalExecutor(pipeline),
            get_workload("ldpc").initial_items(params),
        )
        dirty = sum(1 for f in result.outputs if f.bits.any())
        assert dirty > 0

    @pytest.mark.parametrize("seed", [0, 41, 67, 82])
    def test_default_snr_decodes_nine_frames_in_ten(self, seed):
        """The convergence claim the exact check no longer makes: at the
        default parameters the channel leaves at least 90% of frames
        decodable, at seed 0 and at benchmark seeds."""
        spec = get_workload("ldpc")
        params = _bench_seeded(spec.default_params(), seed)
        result = run(spec, MegakernelModel(), params)
        spec.check_outputs(params, result.outputs)
        clean = sum(
            1 for f in result.outputs if f.syndrome_ok and not f.bits.any()
        )
        assert clean >= 0.9 * params.num_frames

    @pytest.mark.parametrize("seed", [41, 67])
    def test_quick_check_accepts_channel_failures(self, seed):
        """At these benchmark seeds a quick frame genuinely fails to
        decode; the check grades it against the reference instead of
        rejecting the run."""
        spec = get_workload("ldpc")
        params = _bench_seeded(spec.quick_params(), seed)
        result = run(spec, MegakernelModel(), params)
        clean = sum(
            1 for f in result.outputs if f.syndrome_ok and not f.bits.any()
        )
        assert clean < params.num_frames
        spec.check_outputs(params, result.outputs)

    @pytest.mark.parametrize(
        "mutate",
        ["drop", "duplicate_id", "flip_bits", "iterations"],
    )
    def test_check_rejects_wrong_outputs(self, mutate):
        import dataclasses

        spec = get_workload("ldpc")
        params = spec.quick_params()
        outputs = list(run(spec, MegakernelModel(), params).outputs)
        spec.check_outputs(params, outputs)
        frame = outputs[-1]
        if mutate == "drop":
            outputs.pop()
        elif mutate == "duplicate_id":
            other = next(f for f in outputs if f.frame_id != frame.frame_id)
            outputs[-1] = dataclasses.replace(frame, frame_id=other.frame_id)
        elif mutate == "flip_bits":
            bits = frame.bits.copy()
            bits[3] ^= 1
            outputs[-1] = dataclasses.replace(frame, bits=bits)
        else:
            outputs[-1] = dataclasses.replace(
                frame, iterations=frame.iterations - 1
            )
        with pytest.raises(AssertionError):
            spec.check_outputs(params, outputs)

    def test_code_is_regular(self):
        from repro.workloads import ldpc

        params = ldpc.LDPCParams(n_bits=256)
        code = ldpc.build_code(params)
        # Column degrees all equal dv.
        degrees = np.bincount(
            code.check_to_var.ravel(), minlength=params.n_bits
        )
        assert np.all(degrees == params.var_degree)
        # No duplicate edges within a check.
        for row in code.check_to_var:
            assert len(set(row)) == params.check_degree


class TestReyesFunctional:
    def test_all_leaves_below_threshold(self):
        from repro.workloads import reyes

        params = reyes.WORKLOAD.quick_params()
        spec = get_workload("reyes")
        result = run(spec, MegakernelModel(), params)
        spec.check_outputs(params, result.outputs)

    def test_subdivision_preserves_surface(self):
        """Splitting a patch then evaluating equals evaluating the patch."""
        from repro.workloads import reyes

        params = reyes.WORKLOAD.quick_params()
        patch = reyes.base_patches(params)[0]
        left, right = reyes._decasteljau_split(patch.control, 0)
        whole = reyes.evaluate_patch(patch.control, 8)
        # The left half at parameter t corresponds to the whole at t/2, so
        # every second u-sample of the half matches the whole's first half.
        left_eval = reyes.evaluate_patch(left, 8)
        np.testing.assert_allclose(left_eval[::2], whole[:5], atol=1e-9)
        right_eval = reyes.evaluate_patch(right, 8)
        np.testing.assert_allclose(right_eval[::2], whole[4:], atol=1e-9)


class TestRasterizationFunctional:
    def test_composite_framebuffer(self):
        from repro.workloads import rasterization as ras

        params = ras.RasterParams(width=128, height=96, num_cubes=5)
        spec = get_workload("rasterization")
        result = run(spec, KBKModel(), params)
        depth, color = ras.composite(params, result.outputs)
        covered = np.isfinite(depth).sum()
        assert covered > 100
        assert color[np.isfinite(depth)].max() > 0

    def test_composite_is_order_independent(self):
        from repro.workloads import rasterization as ras

        params = ras.RasterParams(width=96, height=64, num_cubes=4)
        spec = get_workload("rasterization")
        a = run(spec, KBKModel(), params)
        b = run(spec, MegakernelModel(), params)
        depth_a, _ = ras.composite(params, a.outputs)
        depth_b, _ = ras.composite(params, b.outputs)
        np.testing.assert_array_equal(
            np.nan_to_num(depth_a, posinf=-1),
            np.nan_to_num(depth_b, posinf=-1),
        )
