"""Unit tests for tensor unfoldings, products, and spectral quantities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tensortree import JointTensor4, QuartetRelation, nuclear_norm, spectral, unfold
from tensortree.exceptions import NumericalError


def random_tensor(n, seed):
    rng = np.random.default_rng(seed)
    vals = rng.random((n, n, n, n))
    return JointTensor4(vals / vals.sum())


class TestUnfold:
    def test_single_entry_index_law(self):
        # P(2,1,1,1) = 1 must land at row 2, column 1 (1-based) of the first
        # unfolding: row x1 + n(x2-1), column x3 + n(x4-1).
        vals = np.zeros((2, 2, 2, 2))
        vals[1, 0, 0, 0] = 1.0
        t = JointTensor4(vals)
        a = unfold(t, QuartetRelation.PAIR_12_34)
        expected = np.zeros((4, 4))
        expected[1, 0] = 1.0
        assert np.array_equal(a, expected)

    @pytest.mark.parametrize("relation,rowpair,colpair", [
        (QuartetRelation.PAIR_12_34, (0, 1), (2, 3)),
        (QuartetRelation.PAIR_13_24, (0, 2), (1, 3)),
        (QuartetRelation.PAIR_14_23, (0, 3), (1, 2)),
    ])
    def test_index_law_all_groupings(self, relation, rowpair, colpair):
        for n in (2, 3, 5):
            t = random_tensor(n, 0)
            m = unfold(t, relation)
            for idx in np.ndindex(n, n, n, n):
                row = idx[rowpair[0]] + n * idx[rowpair[1]]
                col = idx[colpair[0]] + n * idx[colpair[1]]
                assert m[row, col] == t.values[idx]

    def test_entry_preserving(self):
        t = random_tensor(4, 1)
        for rel in QuartetRelation:
            m = unfold(t, rel)
            assert np.isclose(np.linalg.norm(m), np.linalg.norm(t.values))
            assert sorted(m.ravel()) == pytest.approx(sorted(t.values.ravel()))

    def test_permutation_consistency(self):
        # Unfolding B of P equals unfolding A of P with axes 2 and 3 swapped.
        t = random_tensor(3, 2)
        swapped = JointTensor4(t.values.transpose(0, 2, 1, 3))
        assert np.array_equal(unfold(t, QuartetRelation.PAIR_13_24),
                              unfold(swapped, QuartetRelation.PAIR_12_34))

    # The axis table unfold kept before it read QuartetRelation.groups.
    REFERENCE_AXES = {
        QuartetRelation.PAIR_12_34: (0, 1, 2, 3),
        QuartetRelation.PAIR_13_24: (0, 2, 1, 3),
        QuartetRelation.PAIR_14_23: (0, 3, 1, 2),
    }

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_axis_table(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        # Random entries, and entries drawn from two values, so most of them tie.
        for vals in (rng.random((n,) * 4), rng.integers(1, 3, (n,) * 4).astype(float)):
            t = JointTensor4(vals / vals.sum())
            for rel in QuartetRelation:
                expected = t.values.transpose(self.REFERENCE_AXES[rel]).reshape(
                    n * n, n * n, order="F")
                got = unfold(t, rel)
                assert np.array_equal(got, expected) and got.strides == expected.strides



class TestSpectral:
    def test_identity(self):
        sv = spectral(np.eye(2))
        assert sv == pytest.approx([1.0, 1.0])
        assert nuclear_norm(np.eye(2)) == pytest.approx(2.0)

    def test_rank_one(self):
        m = np.array([[3.0, 0.0], [4.0, 0.0]])
        assert spectral(m) == pytest.approx([5.0, 0.0])
        assert nuclear_norm(m) == pytest.approx(5.0)

    def test_matches_eigendecomposition_oracle(self):
        m = np.random.default_rng(4).normal(size=(4, 4))
        eigs = np.linalg.eigvalsh(m.T @ m)
        oracle = np.sqrt(np.clip(eigs, 0, None)).sum()
        assert spectral(m).sum() == pytest.approx(oracle, abs=1e-10)

    def test_summary_invariants(self):
        m = np.random.default_rng(5).normal(size=(6, 4))
        sv = spectral(m)
        assert sv.shape == (4,)
        assert np.all(np.diff(sv) <= 0) and np.all(sv >= 0)
        assert nuclear_norm(m) == pytest.approx(sv.sum(), abs=1e-10)
        assert (sv ** 2).sum() == pytest.approx(np.linalg.norm(m) ** 2, abs=1e-10)
        assert np.linalg.norm(m) <= nuclear_norm(m) + 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises((NumericalError, ValueError)):
            spectral(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_unitary_invariance(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(5, 5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        assert abs(nuclear_norm(q @ m) - nuclear_norm(m)) <= 1e-9

    def test_perturbation_bound(self):
        # |sum sigma(X~) - sum sigma(X)| <= nuclear norm of the difference.
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.normal(size=(5, 5))
            e = 0.1 * rng.normal(size=(5, 5))
            assert abs(nuclear_norm(x + e) - nuclear_norm(x)) <= nuclear_norm(e) + 1e-10


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(m=arrays(float, array_shapes(min_dims=2, max_dims=2, max_side=8),
                    elements=st.floats(-1e3, 1e3)))
    def test_spectral_invariants(self, m):
        sv = spectral(m)
        assert sv.shape == (min(m.shape),)
        assert np.all(sv >= 0) and np.all(np.diff(sv) <= 0)
        assert nuclear_norm(m) == pytest.approx(sv.sum(), rel=1e-12, abs=1e-12)
        assert (sv ** 2).sum() == pytest.approx(np.linalg.norm(m) ** 2, rel=1e-9, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(m=arrays(float, (3, 4), elements=st.floats(-1.0, 1.0)),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]), at=st.tuples(
               st.integers(0, 2), st.integers(0, 3)))
    def test_spectral_rejects_nonfinite(self, m, bad, at):
        m[at] = bad
        with pytest.raises(ValueError, match="finite"):
            spectral(m)


class TestProducts:
    """The norm identities of A kron B that bench._quartet_gaps reads theta from."""

    def test_kronecker_frobenius_multiplicative(self):
        rng = np.random.default_rng(8)
        m, n = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        for b in (n, n.T):
            assert np.linalg.norm(np.kron(m, b)) == pytest.approx(
                np.linalg.norm(m) * np.linalg.norm(b))

    @pytest.mark.parametrize("seed", range(4))
    def test_kronecker_nuclear_multiplicative(self, seed):
        # The singular values of A kron B are the products of theirs.
        rng = np.random.default_rng([9, seed])
        m, n = rng.random((4, 3)), rng.random((5, 2))
        for b in (n, n.T):
            assert nuclear_norm(np.kron(m, b)) == pytest.approx(
                nuclear_norm(m) * nuclear_norm(b), rel=1e-12)


class TestJointTensor4:
    def test_rejects_negative(self):
        vals = np.full((2, 2, 2, 2), 1 / 16.0)
        vals[0, 0, 0, 0] = -vals[0, 0, 0, 0]
        with pytest.raises(ValueError):
            JointTensor4(vals)

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            JointTensor4(np.full((2, 2, 2, 2), 1.0))
