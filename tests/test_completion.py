import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptsim import (
    SubspaceMap,
    errors,
    post_select,
    unitary_completion,
    zero_map_completion,
)


def random_subspace_map(rng, k, zero=False):
    def ortho(n, cols):
        a = rng.normal(size=(n, cols)) + 1j * rng.normal(size=(n, cols))
        q, _ = np.linalg.qr(a)
        return q

    m = ortho(2 * k, k)
    nb = ortho(2 * k, k)
    if zero:
        a = np.zeros((k, k), dtype=complex)
    else:
        a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return SubspaceMap(m, nb, a)


def canonical_map(k):
    e = np.eye(2 * k, dtype=complex)
    return e[:, :k], e[:, k:]


class TestSubspaceMap:
    def test_valid(self):
        m, nb = canonical_map(2)
        sm = SubspaceMap(m, nb, np.eye(2))
        assert sm.m_basis.shape == sm.n_basis.shape == (4, 2)
        assert sm.action.shape == (2, 2)

    def test_ambient_must_be_doubled(self):
        e = np.eye(3, dtype=complex)
        with pytest.raises(errors.DimensionMismatchError):
            SubspaceMap(e[:, :1], e[:, 1:2], np.eye(1))

    def test_non_orthonormal_basis(self):
        m, nb = canonical_map(2)
        with pytest.raises(errors.DependentInputError):
            SubspaceMap(2 * m, nb, np.eye(2))

    def test_action_shape(self):
        m, nb = canonical_map(2)
        with pytest.raises(errors.DimensionMismatchError):
            SubspaceMap(m, nb, np.eye(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["m_basis", "n_basis", "action"])
    def test_non_finite_entry_is_parse_error(self, name, value):
        # a NaN basis once passed the orthonormality test, whose norm
        # comparison is False for NaN
        m, nb = canonical_map(2)
        args = {"m_basis": m.copy(), "n_basis": nb.copy(), "action": np.eye(2, dtype=complex)}
        args[name][1, 0] = value
        with pytest.raises(errors.ParseError, match=f"SubspaceMap: {name} must be finite"):
            SubspaceMap(**args)


class TestUnitaryCompletion:
    def test_identity_action(self):
        m, nb = canonical_map(2)
        res = unitary_completion(SubspaceMap(m, nb, np.eye(2)))
        assert res.scale == pytest.approx(1.0 / np.sqrt(2.0))
        assert res.U.conj().T @ res.U == pytest.approx(np.eye(4), abs=1e-12)
        v = np.array([0.3, -0.7], dtype=complex)
        lhs = res.P_N @ res.U @ (m @ v)
        assert lhs == pytest.approx(res.scale * (nb @ v), abs=1e-12)

    def test_defining_property_random(self):
        rng = np.random.default_rng(31)
        for k in (1, 2, 3, 4):
            for _ in range(5):
                sm = random_subspace_map(rng, k)
                res = unitary_completion(sm)
                assert np.linalg.norm(
                    res.U.conj().T @ res.U - np.eye(2 * k)
                ) <= 1e-12 * max(1.0, 2 * k)
                assert res.scale == pytest.approx(1.0 / np.linalg.norm(sm.action))
                for _ in range(10):
                    c = rng.normal(size=k) + 1j * rng.normal(size=k)
                    v = sm.m_basis @ c
                    lhs = res.P_N @ res.U @ v
                    rhs = res.scale * (sm.n_basis @ (sm.action @ c))
                    assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(v))

    def test_image_off_n_is_consistent(self):
        # norm is preserved: the part of U v outside N carries the deficit
        rng = np.random.default_rng(32)
        sm = random_subspace_map(rng, 2)
        res = unitary_completion(sm)
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = sm.m_basis @ c
        uv = res.U @ v
        assert np.linalg.norm(uv) == pytest.approx(np.linalg.norm(v))
        p_part = np.linalg.norm(res.P_N @ uv) ** 2
        q_part = np.linalg.norm(uv - res.P_N @ uv) ** 2
        assert p_part + q_part == pytest.approx(np.linalg.norm(v) ** 2)

    def test_zero_map_rejected(self):
        rng = np.random.default_rng(33)
        sm = random_subspace_map(rng, 2, zero=True)
        with pytest.raises(errors.ZeroMapError):
            unitary_completion(sm)

    @pytest.mark.parametrize("k", [1, 2, 16, 64])
    def test_unitary_and_realizes_the_map_at_size(self, k):
        sm = random_subspace_map(np.random.default_rng(40 + k), k)
        res = unitary_completion(sm)
        bound = 1e-12 * max(1.0, 2 * k)
        assert np.linalg.norm(res.U.conj().T @ res.U - np.eye(2 * k)) <= bound
        realized = res.P_N @ res.U @ sm.m_basis
        assert np.linalg.norm(realized - res.scale * (sm.n_basis @ sm.action)) <= bound

    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_rank_one_action(self, k):
        # A/||A||_F has spectral norm 1, so (I - C^dag C)^{1/2} is singular and
        # the top right singular direction of A lands wholly in N
        rng = np.random.default_rng(50 + k)
        sm = random_subspace_map(rng, k)
        x, y = (rng.normal(size=k) + 1j * rng.normal(size=k) for _ in range(2))
        sm = SubspaceMap(sm.m_basis, sm.n_basis, np.outer(x, y.conj()))
        res = unitary_completion(sm)
        bound = 1e-12 * max(1.0, 2 * k)
        assert np.linalg.norm(res.U.conj().T @ res.U - np.eye(2 * k)) <= bound
        realized = res.P_N @ res.U @ sm.m_basis
        assert np.linalg.norm(realized - res.scale * (sm.n_basis @ sm.action)) <= bound
        v = sm.m_basis @ (y / np.linalg.norm(y))
        assert np.linalg.norm(res.P_N @ res.U @ v) == pytest.approx(1.0, abs=bound)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_scale_maximality(self, seed):
        # the realized map on M is exactly scale * A, never larger
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        sm = random_subspace_map(rng, k)
        res = unitary_completion(sm)
        realized = sm.n_basis.conj().T @ res.P_N @ res.U @ sm.m_basis
        assert np.linalg.norm(realized - res.scale * sm.action) <= 1e-10


class TestZeroMapCompletion:
    def test_kills_the_subspace(self):
        rng = np.random.default_rng(34)
        for k in (3, 1, 16):
            sm = random_subspace_map(rng, k, zero=True)
            res = zero_map_completion(sm)
            assert res.scale == 0.0
            assert np.linalg.norm(res.U.conj().T @ res.U - np.eye(2 * k)) <= 1e-12
            c = rng.normal(size=k) + 1j * rng.normal(size=k)
            v = sm.m_basis @ c
            assert np.linalg.norm(res.P_N @ res.U @ v) <= 1e-12 * np.linalg.norm(v)

    def test_rejects_nonzero_action(self):
        m, nb = canonical_map(2)
        with pytest.raises(errors.DimensionMismatchError):
            zero_map_completion(SubspaceMap(m, nb, np.eye(2)))


class TestPostSelect:
    def test_projects_and_normalizes(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        out, prob = post_select(v, p)
        assert prob == pytest.approx(0.5)
        assert out == pytest.approx(np.array([1.0, 0.0]))

    def test_full_projection(self):
        v = np.array([0.6, 0.8j], dtype=complex)
        out, prob = post_select(v, np.eye(2))
        assert prob == pytest.approx(1.0)
        assert out == pytest.approx(v)

    def test_zero_branch(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        v = np.array([0.0, 1.0], dtype=complex)
        out, prob = post_select(v, p)
        assert prob == 0.0
        assert np.linalg.norm(out) == 0.0

    def test_rejects_non_projection(self):
        with pytest.raises(errors.NotProjectionError):
            post_select(np.array([1.0, 0.0]), np.diag([2.0, 0.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(errors.NotNormalizedError):
            post_select(np.array([2.0, 0.0]), np.eye(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_state(self, value):
        # a NaN norm must fail the unit-norm test, not pass as (nan state, nan)
        with pytest.raises(errors.NotNormalizedError):
            post_select(np.array([value, 0.0]), np.eye(2))

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (4,)])
    def test_rejects_projector_of_wrong_shape(self, shape):
        with pytest.raises(errors.DimensionMismatchError):
            post_select(np.array([[1.0], [0.0]]), np.zeros(shape))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("rank", [0, 1, 3])
    def test_block_matches_kron_lift(self, m, rank):
        # P acts on the first axis; the m columns are a spectator factor
        rng = np.random.default_rng(10 * m + rank)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        p = q[:, :rank] @ q[:, :rank].conj().T
        block = rng.normal(size=(4, m)) + 1j * rng.normal(size=(4, m))
        block /= np.linalg.norm(block)
        out, prob = post_select(block, p)
        flat, flat_prob = post_select(block.ravel(), np.kron(p, np.eye(m)))
        assert out.shape == (4, m)
        assert np.linalg.norm(out.ravel() - flat) <= 1e-14
        assert abs(prob - flat_prob) <= 1e-14
