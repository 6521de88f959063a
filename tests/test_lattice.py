import math

import numpy as np
import pytest

from chunkrec import lattice
from chunkrec.autodiff import Tensor, check_gradients
from chunkrec.errors import (CapacityError, ContractError, DegenerateLatticeError, NumericError,
                             ShapeError)
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
    # +inf is no log-probability; -inf is probability zero
    for blank, label in (([[np.inf]], np.zeros((1, 0))), ([[0.0, 0.0]], [[np.inf]])):
        for fn in (forward_pass, backward_pass, lattice_grad, enumerate_paths):
            with pytest.raises(NumericError):
                fn(np.array(blank), np.array(label))
    assert forward_pass(np.array([[-np.inf, 0.0]]), np.array([[0.0]]))[1] == 0.0


@pytest.mark.parametrize("blank, label", [((2, 3), (2, 1)), ((2, 2), (1, 1)), ((3,), (1, 2)),
                                          ((0, 1), (0, 0))])
def test_misshapen_tables_are_shape_errors(blank, label):
    for fn in (forward_pass, backward_pass, lattice_grad, enumerate_paths):
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
    # one pair's tables as columns 0 (blank) and 1 (label) of a table Tensor
    rng = np.random.default_rng(5)
    data = np.zeros((3, 4, 2))
    data[:, :, 0] = np.log(rng.uniform(0.05, 1.0, size=(3, 4)))
    data[:, :3, 1] = np.log(rng.uniform(0.05, 1.0, size=(3, 3)))
    table = Tensor(data, requires_grad=True)
    cells = [((slice(0, 3), slice(None, 4), 0), (slice(0, 3), np.arange(3), np.ones(3, int)))]
    ok, dev = check_gradients(lambda: lattice_nll(table, cells), [table], tol=1e-6)
    assert ok, dev


def _hand_table_cells():
    """A (7, 3, 3) table with blank column 0 and three pairs' cells, laid out as
    model.log_prob_table lays them: U = 0 over chunks 0-1; labels [0, 2] over
    chunks 2-4, whose label 0 reads the blank column, so its label cells at
    u = 0 are its blank cells; labels [1] over chunks 5-6."""
    table = Tensor(np.log(np.random.default_rng(9).uniform(0.05, 1.0, size=(7, 3, 3))),
                   requires_grad=True)
    cells = [((slice(a, b), slice(None, len(y) + 1), 0), (slice(a, b), np.arange(len(y)), y))
             for a, b, y in [(0, 2, np.zeros(0, int)), (2, 5, np.array([0, 2])),
                             (5, 7, np.array([1]))]]
    return table, cells


def test_lattice_nll_is_the_mean_of_forward_passes_with_occupancy_gradients():
    table, cells = _hand_table_cells()
    tables = [[table.data[at] for at in pair] for pair in cells]
    assert [b.shape for b, _ in tables] == [(2, 1), (3, 3), (2, 2)]
    loss = lattice_nll(table, cells)
    assert loss.item() == sum(-forward_pass(*t)[1] for t in tables) * (1 / 3)
    loss.backward()
    want = np.zeros(table.shape)
    for pair, t in zip(cells, tables):
        _, *occupancies = lattice_grad(*t)
        for at, occupancy in zip(pair, occupancies):
            np.add.at(want, at, -(1 / 3) * occupancy)
    assert np.array_equal(table.grad, want)
    ok, dev = check_gradients(lambda: lattice_nll(table, cells), [table], tol=1e-6)
    assert ok, dev
    table.data[6, 1, 0] = -np.inf  # the last pair's terminal blank: no path reaches the end
    with pytest.raises(DegenerateLatticeError):
        lattice_nll(table, cells)


def test_lattice_nll_without_pairs_is_a_contract_error():
    table, _cells = _hand_table_cells()
    with pytest.raises(ContractError):
        lattice_nll(table, [])


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
