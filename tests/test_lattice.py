import math

import numpy as np
import pytest

from chunkrec import lattice
from chunkrec.autodiff import Tensor, check_gradients
from chunkrec.errors import CapacityError, DegenerateLatticeError, NumericError, ShapeError
from chunkrec.lattice import (alignment_paths, backward_pass,
                              diagonal_identity_check, enumerate_paths,
                              forward_pass, lattice_grad, lattice_nll)


def hand_tables():
    # M=2, U=1; total probability 0.3*0.5*0.7 + 0.6*0.2*0.7 = 0.189
    blank = np.log(np.array([[0.6, 0.5], [0.1, 0.7]]))
    label = np.log(np.array([[0.3], [0.2]]))
    return blank, label


def random_tables(rng, M, U):
    blank = np.log(rng.uniform(0.05, 1.0, size=(M, U + 1)))
    label = np.log(rng.uniform(0.05, 1.0, size=(M, U)))
    return blank, label


def test_forward_empty_target_single_chunk():
    blank = np.array([[math.log(0.7)]])
    label = np.zeros((1, 0))
    _, lp = forward_pass(blank, label)
    assert np.isclose(lp, math.log(0.7))


def test_forward_two_path_hand_example():
    _, lp = forward_pass(*hand_tables())
    assert np.isclose(math.exp(lp), 0.189, atol=1e-14)


def test_forward_matches_enumeration_random():
    rng = np.random.default_rng(0)
    blank, label = random_tables(rng, 4, 4)
    _, lp = forward_pass(blank, label)
    ref = enumerate_paths(blank, label)
    assert abs(math.exp(lp) - math.exp(ref)) <= 1e-10 * math.exp(ref)


def test_backward_initial_condition():
    blank = np.array([[math.log(0.7)]])
    beta = backward_pass(blank, np.zeros((1, 0)))
    assert np.isclose(beta[0, 0], math.log(0.7))


def test_backward_hand_example():
    beta = backward_pass(*hand_tables())
    assert np.isclose(math.exp(beta[0, 0]), 0.189, atol=1e-14)


def test_forward_backward_agree():
    rng = np.random.default_rng(1)
    blank, label = random_tables(rng, 3, 5)
    _, lp = forward_pass(blank, label)
    beta = backward_pass(blank, label)
    assert abs(beta[0, 0] - lp) <= 1e-12


def test_diagonal_identity_single_node():
    blank = np.array([[math.log(0.7)]])
    label = np.zeros((1, 0))
    alpha, lp = forward_pass(blank, label)
    beta = backward_pass(blank, label)
    assert diagonal_identity_check(alpha, beta, lp) == 0.0


def test_diagonal_identity_hand_example():
    blank, label = hand_tables()
    alpha, lp = forward_pass(blank, label)
    beta = backward_pass(blank, label)
    assert diagonal_identity_check(alpha, beta, lp) <= 1e-12


def test_diagonal_identity_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        blank, label = random_tables(rng, 5, 6)
        alpha, lp = forward_pass(blank, label)
        beta = backward_pass(blank, label)
        assert diagonal_identity_check(alpha, beta, lp) <= 1e-9


def test_grad_single_node():
    blank = np.array([[math.log(0.7)]])
    _, gb, _ = lattice_grad(blank, np.zeros((1, 0)))
    assert np.isclose(gb[0, 0], 1.0)


def test_grad_terminal_blank_occupancy_one():
    _, gb, _ = lattice_grad(*hand_tables())
    assert np.isclose(gb[1, 1], 1.0)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    blank, label = random_tables(rng, 4, 3)
    lp0, gb, gl = lattice_grad(blank, label)
    eps = 1e-7
    for arr, grad in ((blank, gb), (label, gl)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            _, lp_p = forward_pass(blank, label)
            arr[idx] = orig - eps
            _, lp_m = forward_pass(blank, label)
            arr[idx] = orig
            fd = (lp_p - lp_m) / (2 * eps)
            assert abs(grad[idx] - fd) <= 1e-6 * max(1.0, abs(fd)), (idx, grad[idx], fd)


def test_grad_entries_in_unit_interval():
    rng = np.random.default_rng(4)
    for _ in range(10):
        blank, label = random_tables(rng, 5, 5)
        _, gb, gl = lattice_grad(blank, label)
        for g in (gb, gl):
            assert (g >= 0).all() and (g <= 1 + 1e-12).all()


def test_enumerate_single_chunk_path():
    blank = np.log(np.array([[0.2, 0.3, 0.4]]))
    label = np.log(np.array([[0.5, 0.6]]))
    lp = enumerate_paths(blank, label)
    assert np.isclose(math.exp(lp), 0.5 * 0.6 * 0.4)


def test_enumerate_two_paths():
    lp = enumerate_paths(*hand_tables())
    assert np.isclose(math.exp(lp), 0.189, atol=1e-14)


def test_path_count_stars_and_bars():
    assert sum(1 for _ in alignment_paths(3, 2)) == math.comb(4, 2)
    for M in range(1, 6):
        for U in range(0, 6):
            assert sum(1 for _ in alignment_paths(M, U)) == math.comb(U + M - 1, M - 1)


def test_enumerate_capacity_guard():
    with pytest.raises(CapacityError):
        enumerate_paths(np.zeros((9, 2)), np.zeros((9, 1)))


def test_nan_rejected():
    blank = np.array([[np.nan]])
    with pytest.raises(NumericError):
        forward_pass(blank, np.zeros((1, 0)))


@pytest.mark.parametrize("blank, label", [((2, 3), (2, 1)), ((2, 2), (1, 1)), ((3,), (1, 2))])
def test_misshapen_tables_are_shape_errors(blank, label):
    for fn in (forward_pass, backward_pass, lattice_grad):
        with pytest.raises(ShapeError):
            fn(np.zeros(blank), np.zeros(label))


def test_lattice_grad_validates_its_tables_once(monkeypatch):
    # lattice_grad checks its tables and runs the unvalidated sweeps on them,
    # with the bits of the public passes
    calls, validate = [], lattice._validate

    def counted(*args):
        calls.append(1)
        return validate(*args)

    blank, label = random_tables(np.random.default_rng(8), 4, 3)
    alpha, lp = forward_pass(blank, label)
    beta = backward_pass(blank, label)
    monkeypatch.setattr(lattice, "_validate", counted)
    log_prob, grad_blank, grad_label = lattice_grad(blank, label)
    assert len(calls) == 1
    assert log_prob == lp
    assert np.array_equal(grad_label, np.exp(alpha[:, :-1] + label + beta[:, 1:] - lp))
    assert np.array_equal(grad_blank[:-1], np.exp(alpha[:-1] + blank[:-1] + beta[1:] - lp))


def test_lattice_nll_tensor_grads():
    rng = np.random.default_rng(5)
    blank = Tensor(np.log(rng.uniform(0.05, 1.0, size=(3, 4))), requires_grad=True)
    label = Tensor(np.log(rng.uniform(0.05, 1.0, size=(3, 3))), requires_grad=True)
    ok, dev = check_gradients(lambda: lattice_nll(blank, label), [blank, label], tol=1e-6)
    assert ok, dev


def test_degenerate_lattice_error():
    blank = np.array([[-np.inf]])
    with pytest.raises(DegenerateLatticeError):
        lattice_grad(blank, np.zeros((1, 0)))


def test_lattices_with_impossible_edges_match_enumeration():
    # about a fifth of the entries -inf; M = 1 with U > 0 and U = 0 with M > 1 included
    rng = np.random.default_rng(6)
    outcomes = set()
    for M in range(1, 7):
        for U in range(0, 7):
            for _ in range(4):
                blank, label = random_tables(rng, M, U)
                blank[rng.random(blank.shape) < 0.2] = -np.inf
                label[rng.random(label.shape) < 0.2] = -np.inf
                _, lp = forward_pass(blank, label)
                ref = enumerate_paths(blank, label)
                beta = backward_pass(blank, label)
                outcomes.add(ref == -np.inf)
                if ref == -np.inf:
                    assert lp == -np.inf and beta[0, 0] == -np.inf
                    with pytest.raises(DegenerateLatticeError):
                        lattice_grad(blank, label)
                    continue
                assert abs(math.expm1(lp - ref)) <= 1e-10, (M, U, lp, ref)
                assert abs(beta[0, 0] - lp) <= 1e-12 * max(1.0, abs(lp))
                _, gb, gl = lattice_grad(blank, label)
                for g in (gb, gl):
                    assert (g >= 0).all() and (g <= 1 + 1e-12).all()
    assert outcomes == {True, False}
