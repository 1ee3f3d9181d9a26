from dataclasses import replace

import numpy as np
import pytest

import composed_ops as composed
from memtrack import network, ops
from memtrack.errors import LengthMismatch
from memtrack.filtering import TrackerConfig, run_filter
from memtrack.models import (
    ExtensionState,
    ScenarioConfig,
    TrackState,
    frame_features,
    frame_stats,
    nominal_cv_model,
    stack_frames,
)
from memtrack.network import (
    MemoryState,
    block_weights,
    encode_inputs,
    forward_sequence,
    init_params,
    initial_memory,
    jeb_heads,
    jub_heads,
    mub_step,
    sequence_loss,
    zero_params,
)
from memtrack.simulate import generate_case
from memtrack.training import TrainConfig, _run_loss, _sequence_gradients, collect_feature_stats


@pytest.fixture()
def case():
    return generate_case(ScenarioConfig(steps=20, cases=1, seed=31), 31, 0)


@pytest.fixture()
def model():
    return nominal_cv_model(sigma_w=0.4, dt=1.0)


def _encode(state, ext, points, params):
    fs = frame_stats(points)
    return encode_inputs(state, ext, fs, frame_features([fs])[0], block_weights(params))


class TestEncoding:
    def test_identity_extent_encodes_zero(self):
        state = TrackState(mean=np.zeros(4), cov=np.eye(4))
        ext = ExtensionState(dof=10.0, param=4.0 * np.eye(2))  # mean = I
        feats = _encode(state, ext, np.zeros((3, 2)), zero_params(4))
        # log-Cholesky block of the extent occupies features 8..10
        np.testing.assert_allclose(feats[8:11], 0.0, atol=1e-12)

    def test_diagonal_extent_log_encoding(self):
        state = TrackState(mean=np.zeros(4), cov=np.eye(4))
        lam = 4.0
        ext = ExtensionState(dof=10.0, param=lam * np.diag([np.e ** 2, np.e ** 4]))
        feats = _encode(state, ext, np.zeros((3, 2)), zero_params(4))
        np.testing.assert_allclose(feats[8:11], [1.0, 2.0, 0.0], atol=1e-12)

    def test_single_point_frame_is_finite(self):
        state = TrackState(mean=np.zeros(4), cov=np.eye(4))
        ext = ExtensionState(dof=10.0, param=4.0 * np.eye(2))
        feats = _encode(state, ext, np.array([[1.0, -1.0]]), zero_params(4))
        assert feats.shape == (network.FEATURE_DIM,)
        assert np.all(np.isfinite(feats))

    def test_standardization_applied(self):
        state = TrackState(mean=np.zeros(4), cov=np.eye(4))
        ext = ExtensionState(dof=10.0, param=4.0 * np.eye(2))
        params = zero_params(4)
        raw = _encode(state, ext, np.zeros((3, 2)), params)
        params.feat_mean = np.full(network.FEATURE_DIM, 1.0)
        params.feat_std = np.full(network.FEATURE_DIM, 2.0)
        scaled = _encode(state, ext, np.zeros((3, 2)), params)
        np.testing.assert_allclose(scaled, (raw - 1.0) / 2.0, atol=1e-12)


class TestMubStep:
    def test_zero_params_zero_memory(self):
        params = zero_params(4)
        mem = initial_memory(4)
        out = mub_step(block_weights(params), np.ones(network.FEATURE_DIM), mem)
        np.testing.assert_array_equal(ops.value(out.cell), np.zeros(4))
        np.testing.assert_array_equal(ops.value(out.hidden), np.zeros(4))

    def test_zero_params_nonzero_cell_halves(self):
        params = zero_params(4)
        c0 = np.array([1.0, -2.0, 0.5, 4.0])
        mem = MemoryState(cell=c0, hidden=np.zeros(4), pc=np.zeros(4))
        out = mub_step(block_weights(params), np.zeros(network.FEATURE_DIM), mem)
        np.testing.assert_allclose(ops.value(out.cell), 0.5 * c0, atol=1e-12)
        np.testing.assert_allclose(ops.value(out.hidden), 0.5 * np.tanh(0.5 * c0), atol=1e-12)

    def test_masked_memory_frozen(self):
        params = zero_params(4, mask_memory=True)
        rng = np.random.default_rng(0)
        mem = MemoryState(cell=rng.standard_normal(4), hidden=rng.standard_normal(4),
                          pc=np.abs(rng.standard_normal(4)))
        out = mub_step(block_weights(params), rng.standard_normal(18), mem)
        np.testing.assert_array_equal(out.cell, mem.cell)
        np.testing.assert_array_equal(out.hidden, mem.hidden)
        np.testing.assert_array_equal(out.pc, np.zeros(4))


class TestHeads:
    def test_calibrated_zero(self):
        params = zero_params(4)
        mem = MemoryState(cell=np.ones(4), hidden=np.ones(4), pc=np.ones(4))
        df, ef, pphi = jeb_heads(block_weights(params), mem)
        np.testing.assert_array_equal(ops.value(df), np.zeros(4))
        np.testing.assert_array_equal(ops.value(ef), np.zeros(4))
        np.testing.assert_array_equal(ops.value(pphi), np.zeros((2, 2)))
        state = TrackState(mean=np.zeros(4), cov=np.eye(4))
        ext = ExtensionState(dof=10.0, param=4.0 * np.eye(2))
        dh, eh = jub_heads(block_weights(params), state, ext)
        np.testing.assert_array_equal(ops.value(dh), np.zeros(2))
        np.testing.assert_array_equal(ops.value(eh), np.zeros(2))

    def test_masked_heads_zero_with_random_params(self):
        rng = np.random.default_rng(1)
        params = init_params(4, rng, mask_evolution=True, mask_update=True)
        for name, arr in params.arrays.items():
            params.arrays[name] = arr + rng.standard_normal(arr.shape)
        mem = MemoryState(cell=rng.standard_normal(4), hidden=rng.standard_normal(4),
                          pc=np.abs(rng.standard_normal(4)))
        df, ef, pphi = jeb_heads(block_weights(params), mem)
        assert np.all(df == 0) and np.all(ef == 0) and np.all(pphi == 0)
        state = TrackState(mean=rng.standard_normal(4), cov=np.eye(4))
        ext = ExtensionState(dof=11.0, param=5.0 * np.eye(2))
        dh, eh = jub_heads(block_weights(params), state, ext)
        assert np.all(dh == 0) and np.all(eh == 0)

    def test_pphi_psd_and_cov_heads_bounded_below(self):
        rng = np.random.default_rng(2)
        params = init_params(6, rng)
        for name, arr in params.arrays.items():
            params.arrays[name] = arr + 0.5 * rng.standard_normal(arr.shape)
        mem = MemoryState(cell=rng.standard_normal(6), hidden=rng.standard_normal(6),
                          pc=np.abs(rng.standard_normal(6)))
        df, ef, pphi = jeb_heads(block_weights(params), mem)
        pphi = ops.value(pphi)
        np.testing.assert_allclose(pphi, pphi.T, atol=1e-12)
        assert np.linalg.eigvalsh(pphi).min() >= -1e-12
        # both scale excesses are softplus / log(2) - 1 >= -1, and -1 where
        # softplus underflows
        assert ops.value(ef).min() >= -1.0
        params.arrays["evo_cov_b"][:] = -800.0
        ef = jeb_heads(block_weights(params), mem)[1]
        np.testing.assert_array_equal(ops.value(ef), [-1, -1, -1, -1])
        state = TrackState(mean=np.zeros(4), cov=np.eye(4))
        ext = ExtensionState(dof=11.0, param=5.0 * np.eye(2))
        assert ops.value(jub_heads(block_weights(params), state, ext)[1]).min() >= -1.0
        params.arrays["upd_scale_b"][:] = -800.0
        eh = jub_heads(block_weights(params), state, ext)[1]
        np.testing.assert_array_equal(ops.value(eh), [-1, -1])


class TestStackedHeads:
    """Each head block runs its heads as one matvec of the rows
    ``block_weights`` stacks: under a tape the stacks are nodes whose vjp
    splits the rows back to the checkpoint's arrays."""

    @staticmethod
    def _taped_block(block, make_inputs, lead, rng_seed):
        """Values of a block's outputs and its node's adjoints for
        ``lead``-shaped inputs, given the same random output adjoints."""
        params = _perturbed(None, memory_dim=5)
        params.feat_mean = np.random.default_rng(7).standard_normal(network.FEATURE_DIM)
        params.feat_std = np.random.default_rng(8).uniform(0.5, 2.0, network.FEATURE_DIM)
        tape = ops.Tape()
        weights = block_weights(replace(params, arrays=params.leaves(tape)))
        outputs = block(weights, *make_inputs(tape, lead))
        values = [ops.value(v) for v in outputs]
        g = [np.random.default_rng(rng_seed).standard_normal(v.shape) for v in values]
        return values, g, tape.entries[-1][1]

    @staticmethod
    def _memory(tape, lead):
        rng = np.random.default_rng(9)
        hidden, pc = rng.standard_normal((6, 5)), rng.uniform(0.0, 2.0, (6, 5))
        rows = slice(None) if lead else 2
        return (MemoryState(cell=None, hidden=tape.leaf(hidden[rows]), pc=tape.leaf(pc[rows])),)

    @staticmethod
    def _predictions(tape, lead):
        rng = np.random.default_rng(10)
        m, n = rng.standard_normal((6, 4, 4)), rng.standard_normal((6, 2, 2))
        mean, cov = rng.standard_normal((6, 4)), m @ m.mT + np.eye(4)
        param, dof = n @ n.mT + np.eye(2), rng.uniform(9.0, 40.0, 6)
        rows = slice(None) if lead else 2
        return (TrackState(mean=tape.leaf(mean[rows]), cov=tape.leaf(cov[rows])),
                ExtensionState(dof=dof[rows], param=tape.leaf(param[rows])))

    @pytest.mark.parametrize("block", ["jeb", "jub"])
    def test_batch_rows_equal_each_row_alone(self, block):
        """A 6-case batch's outputs and adjoints (each weight's outer-product
        factors, each bias's and input's adjoint) equal case 2's alone, bit
        for bit."""
        fn, inputs = ((jeb_heads, self._memory) if block == "jeb"
                      else (jub_heads, self._predictions))
        values, g, vjp = self._taped_block(fn, inputs, (6,), 11)
        one_values, _, one_vjp = self._taped_block(fn, inputs, (), 11)
        for v, w in zip(values, one_values):
            np.testing.assert_array_equal(v[2], w)
        got, want = vjp(g), one_vjp([gk[2].copy() for gk in g])
        assert len(got) == len(want)
        for a, w in zip(got, want):
            if isinstance(w, ops.Outer):
                np.testing.assert_array_equal(a.g[2], w.g)
                np.testing.assert_array_equal(a.x[2], w.x)
            else:
                np.testing.assert_array_equal(a[2], w)

    def test_stack_splits_its_adjoint_rows(self):
        """A stack's value is its parts' rows in order, and its adjoint
        splits back into theirs: a weight's, and a bias's with or without a
        case axis in front.  Without a tape it is a plain concatenation."""
        rng = np.random.default_rng(12)
        for parts, adjoints in (
                ([rng.standard_normal((n, 5)) for n in (4, 4, 3)], [(11, 5)]),
                ([rng.standard_normal(n) for n in (4, 4, 3)], [(11,), (3, 11)])):
            np.testing.assert_array_equal(network._stack(parts), np.concatenate(parts))
            tape = ops.Tape()
            stacked = network._stack([tape.leaf(p) for p in parts])
            np.testing.assert_array_equal(stacked.value, np.concatenate(parts))
            axis = -parts[0].ndim
            for shape in adjoints:
                g = rng.standard_normal(shape)
                pieces = tape.entries[-1][1](g)
                assert [p.shape[axis] for p in pieces] == [4, 4, 3]
                np.testing.assert_array_equal(np.concatenate(pieces, axis=axis), g)

    @pytest.mark.parametrize("mask", ["mask_evolution", "mask_update", "mask_memory"])
    def test_masked_blocks_stack_nothing(self, mask):
        tape = ops.Tape()
        params = _perturbed(mask)
        weights = block_weights(replace(params, arrays=params.leaves(tape)))
        field = {"mask_evolution": "evolution", "mask_update": "update",
                 "mask_memory": "memory"}[mask]
        assert getattr(weights, field) is None
        assert len(tape.entries) == len(params.arrays) + (4 if mask == "mask_memory" else 2)


class TestForwardSequence:
    def test_zero_params_equals_baseline_exactly(self, case, model):
        tcfg = TrackerConfig()
        base_states, base_exts, _ = run_filter(case.frames, model, tcfg)
        params = zero_params(8)
        net_states, net_exts, _ = forward_sequence(params, case.frames, model, tcfg)
        for a, b in zip(base_states, net_states):
            np.testing.assert_array_equal(a.mean, ops.value(b.mean))
            np.testing.assert_array_equal(a.cov, ops.value(b.cov))
        for a, b in zip(base_exts, net_exts):
            assert a.dof == b.dof
            np.testing.assert_array_equal(a.param, ops.value(b.param))

    def test_taped_forward_matches_plain(self, case, model):
        rng = np.random.default_rng(3)
        params = init_params(6, rng)
        for name, arr in params.arrays.items():
            params.arrays[name] = arr + 0.05 * rng.standard_normal(arr.shape)
        tcfg = TrackerConfig()
        plain_states, plain_exts, _ = forward_sequence(params, case.frames, model, tcfg)
        tape = ops.Tape()
        taped_states, taped_exts, _ = forward_sequence(params, case.frames, model, tcfg,
                                                       tape=tape)
        for a, b in zip(plain_states, taped_states):
            np.testing.assert_array_equal(ops.value(a.mean), ops.value(b.mean))
        for a, b in zip(plain_exts, taped_exts):
            np.testing.assert_array_equal(ops.value(a.param), ops.value(b.param))

    def test_taped_forward_returns_leaves_and_keeps_params_plain(self, case, model):
        params = init_params(4, np.random.default_rng(4))
        arrays = dict(params.arrays)
        tape = ops.Tape()
        _, _, leaves = forward_sequence(params, case.frames, model, tape=tape)
        assert list(leaves) == list(arrays)
        for name, leaf in leaves.items():
            assert isinstance(leaf, ops.Var)
            np.testing.assert_array_equal(leaf.value, arrays[name])
            assert params.arrays[name] is arrays[name]
        assert forward_sequence(params, case.frames, model)[2] is None

    def test_minimal_two_frame_sequence(self, model):
        case = generate_case(ScenarioConfig(steps=2, cases=1, seed=37), 37, 0)
        states, exts, _ = forward_sequence(zero_params(4), case.frames, model)
        assert len(states) == 1 and len(exts) == 1

    def test_deterministic_across_runs(self, case, model):
        rng = np.random.default_rng(5)
        params = init_params(4, rng)
        a = forward_sequence(params, case.frames, model)
        b = forward_sequence(params, case.frames, model)
        for sa, sb in zip(a[0], b[0]):
            np.testing.assert_array_equal(ops.value(sa.mean), ops.value(sb.mean))


class TestSequenceLoss:
    def test_perfect_estimates_zero_loss(self):
        states = [TrackState(mean=np.array([1.0, 2.0, 3.0, 4.0]), cov=np.eye(4))]
        exts = [ExtensionState(dof=10.0, param=4.0 * np.diag([2.0, 1.0]))]
        truth_x = np.array([[1.0, 2.0, 3.0, 4.0]])
        truth_e = np.array([np.diag([2.0, 1.0])])
        assert float(ops.value(sequence_loss(states, exts, truth_x, truth_e))) == 0.0

    def test_single_step_offset(self):
        states = [TrackState(mean=np.array([3.0, 4.0, 0.0, 0.0]), cov=np.eye(4))]
        exts = [ExtensionState(dof=10.0, param=4.0 * np.eye(2))]
        truth_x = np.zeros((1, 4))
        truth_e = np.array([np.eye(2)])
        loss = float(ops.value(sequence_loss(states, exts, truth_x, truth_e)))
        assert abs(loss - 12.5) < 1e-12

    def test_regularization_zero_at_zero_params(self):
        params = zero_params(4)
        states = [TrackState(mean=np.zeros(4), cov=np.eye(4))]
        exts = [ExtensionState(dof=10.0, param=4.0 * np.eye(2))]
        loss = sequence_loss(states, exts, np.zeros((1, 4)), np.array([np.eye(2)]),
                             weights=params.arrays, gamma=1.0)
        assert float(ops.value(loss)) == 0.0

    def test_length_mismatch(self):
        states = [TrackState(mean=np.zeros(4), cov=np.eye(4))]
        with pytest.raises(LengthMismatch):
            sequence_loss(states, [], np.zeros((1, 4)), np.zeros((1, 2, 2)))

    def test_zero_steps_is_a_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            sequence_loss([], [], np.zeros((0, 4)), np.zeros((0, 2, 2)))


# Tape nodes one taped step records: the feature encoding, the memory update
# (the LSTM step with the memory-covariance head), each head block and each
# filter stage.  A sequence records STACK_NODES more before its first step,
# the stacked weight and bias of each head block, and the loss is one more
# node for the whole sequence.
NODES_PER_STEP = 8
STACK_NODES = 4


def _perturbed(mask, memory_dim=6, seed=11):
    rng = np.random.default_rng(seed)
    params = init_params(memory_dim, rng, **({mask: True} if mask else {}))
    for name, arr in params.arrays.items():
        params.arrays[name] = arr + 0.1 * rng.standard_normal(arr.shape)
    return params


class TestFusedPipeline:
    """The whole taped sequence with every fused stage against the same
    sequence with every stage composed of generic ops."""

    @pytest.mark.parametrize("mask", [None, "mask_evolution", "mask_update", "mask_memory"])
    def test_loss_and_gradients_match_composed(self, case, model, mask, monkeypatch):
        params = _perturbed(mask)
        params.feat_mean, params.feat_std = collect_feature_stats([case], model, TrackerConfig())
        cfg = TrainConfig(l2=1e-3)
        fused = _sequence_gradients(params, case, model, cfg)
        plain = forward_sequence(params, case.frames, model)
        composed.compose_everything(monkeypatch)
        unfused = _sequence_gradients(params, case, model, cfg)
        assert fused[0] == unfused[0] and np.isfinite(fused[0])
        for name, want in unfused[1].items():
            scale = max(1e-300, float(np.max(np.abs(want))))
            np.testing.assert_allclose(fused[1][name], want, rtol=0, atol=1e-12 * scale)
        for a, b in zip(plain[0], forward_sequence(params, case.frames, model)[0]):
            np.testing.assert_array_equal(ops.value(a.mean), ops.value(b.mean))
            np.testing.assert_array_equal(ops.value(a.cov), ops.value(b.cov))

    def test_node_count_per_step(self, model):
        """A seeded 20-step taped sequence and its loss record at most
        NODES_PER_STEP nodes a step, besides the leaves, the head stacks and
        the final mean."""
        case = generate_case(ScenarioConfig(steps=21, cases=1, seed=32), 32, 0)
        tape = ops.Tape()
        states, exts, leaves = forward_sequence(_perturbed(None), case.frames, model, tape=tape)
        loss = sequence_loss(states, exts, case.truth.states[1:], case.truth.extents[1:])
        assert len(states) == 20
        assert len(tape.entries) == loss.idx + 1
        assert len(tape.entries) - len(leaves) <= STACK_NODES + NODES_PER_STEP * 20 + 1


class TestBatchForward:
    """A forward of several cases as one batch: each row's posteriors and
    loss equal that case's own forward, bit for bit, and a tape over the
    batch differentiates the cases' summed loss."""

    @pytest.fixture()
    def cases(self):
        cfg = ScenarioConfig(steps=25, cases=3, seed=33)
        return [generate_case(cfg, 33, i) for i in range(3)]

    @pytest.mark.parametrize("mask", [None, "mask_evolution", "mask_update", "mask_memory"])
    def test_rows_equal_single_forwards(self, cases, model, mask):
        params = _perturbed(mask)
        params.feat_mean, params.feat_std = collect_feature_stats(cases, model, TrackerConfig())
        frames = stack_frames([c.frames for c in cases])
        states, exts, leaves = forward_sequence(params, frames, model)
        assert leaves is None
        losses = sequence_loss(states, exts, np.stack([c.truth.states[1:] for c in cases], 1),
                               np.stack([c.truth.extents[1:] for c in cases], 1),
                               weights=params.arrays, gamma=1e-3)
        assert losses.shape == (3,)
        for i, case in enumerate(cases):
            s_states, s_exts, _ = forward_sequence(params, case.frames, model)
            for b, s in zip(states, s_states):
                np.testing.assert_array_equal(b.mean[i], s.mean)
                np.testing.assert_array_equal(b.cov[i], s.cov)
            for b, s in zip(exts, s_exts):
                assert b.dof[i] == s.dof
                np.testing.assert_array_equal(b.param[i], s.param)
            loss = sequence_loss(s_states, s_exts, case.truth.states[1:],
                                 case.truth.extents[1:], weights=params.arrays, gamma=1e-3)
            assert losses[i] == loss

    @pytest.mark.parametrize("mask", [None, "mask_evolution", "mask_update", "mask_memory"])
    def test_batched_tape_sums_the_cases_gradients(self, cases, model, mask):
        """One tape over the three cases, differentiated on their summed
        loss, gives each weight the sum of the cases' own training gradients."""
        params = _perturbed(mask)
        params.feat_mean, params.feat_std = collect_feature_stats(cases, model, TrackerConfig())
        cfg = TrainConfig(l2=1e-3)
        want = {name: np.zeros_like(arr) for name, arr in params.arrays.items()}
        for case in cases:
            loss, grads = _sequence_gradients(params, case, model, cfg)
            assert np.isfinite(loss)
            for name, g in grads.items():
                want[name] += g
        tape = ops.Tape()
        loss, _, _, leaves = _run_loss(params, cases, model, cfg.tracker, cfg.l2, tape)
        assert ops.value(loss).shape == (3,)
        grads = tape.backward(loss)
        for name, var in leaves.items():
            scale = max(1e-300, float(np.max(np.abs(want[name]))))
            np.testing.assert_allclose(tape.grad(grads, var), want[name], rtol=0,
                                       atol=1e-12 * scale)

    def test_each_node_adjoint_row_is_the_cases_own(self, cases, model):
        """Every node of a batched tape, given batch-shaped adjoints, returns
        for each case what the same node of that case's own tape returns for
        that case's rows, bit for bit: per-case adjoints row by row, and each
        weight's outer-product factors and each bias's adjoint row by row.
        The head stacks' values carry no case axis; they are given adjoints
        with one in front, as a bias stack gets them from a batch."""
        params = _perturbed(None)
        params.feat_mean, params.feat_std = collect_feature_stats(cases, model, TrackerConfig())

        def taped(runs):
            tape, outputs = ops.Tape(), {}
            record = tape.record

            def keep(values, parents, vjp):  # remember every node's values
                outputs[len(tape.entries)] = values if isinstance(values, tuple) else (values,)
                return record(values, parents, vjp)

            tape.record = keep
            _run_loss(params, runs, model, TrackerConfig(), 0.0, tape)
            return tape, outputs

        batch, outputs = taped(cases)
        singles = [taped([case]) for case in cases]
        assert all(len(t.entries) == len(batch.entries) for t, _ in singles)
        rng = np.random.default_rng(34)
        stacks = 0
        for idx, entry in enumerate(batch.entries):
            if not entry:
                continue
            several = entry[2] is not None
            shapes = [np.shape(v) for v in outputs[idx]]
            if shapes == [np.shape(v) for v in singles[0][1][idx]]:  # a head stack
                stacks += 1
                shapes = [(len(cases),) + shape for shape in shapes]
            g = [rng.standard_normal(shape) for shape in shapes]
            got = entry[1](g if several else g[0])
            for i, (single, _) in enumerate(singles):
                rows = [np.array(gk[i]) for gk in g]  # each case's rows, in memory of their own
                want = single.entries[idx][1](rows if several else rows[0])
                assert len(got) == len(want)
                for a, w in zip(got, want):
                    if w is None:
                        assert a is None
                    elif isinstance(w, ops.Outer):
                        np.testing.assert_array_equal(a.g[i], w.g)
                        np.testing.assert_array_equal(a.x[i], w.x)
                    else:
                        np.testing.assert_array_equal(a[i], w)
        assert stacks == STACK_NODES
