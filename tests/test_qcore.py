"""Unit tests for the dense one-to-three-qubit register helpers and the input checks."""

import ast
import math
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mirrorclone
from mirrorclone.circuits import Gate, eqneighbor_propagator, equal_up_to_global_phase
from mirrorclone.cli import main
from mirrorclone.cloners import clone, mpcc_choi, mpcc_clone_bloch, uc_choi, uc_fidelity
from mirrorclone.fidelity import PriorDistribution, average_fidelity, mirror_scores, score_operator
from mirrorclone.optimality import optimize_batch, optimize_map
from mirrorclone.qcore import (
    ID2,
    PAULI_X,
    check_choi,
    check_int,
    check_state,
    fidelity_pure,
    haar_random_state,
    ket_from_angles,
    kron,
    partial_trace,
)


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    return w / np.trace(w).real


def test_pauli_algebra():
    assert np.allclose(PAULI_X @ PAULI_X, ID2)


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, 2.0, math.pi])
@pytest.mark.parametrize("phi", [0.0, 1.0, -2.5])
def test_ket_from_angles_bloch_roundtrip(theta, phi):
    psi = ket_from_angles(theta, phi)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-14
    rho = np.outer(psi, psi.conj())
    want = np.array(
        [
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        ]
    )
    got = [2 * rho[0, 1].real, -2 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real]
    assert np.abs(got - want).max() < 1e-14


def test_ket_from_angles_rejects_nonfinite():
    with pytest.raises(ValueError):
        ket_from_angles(math.nan, 0.0)
    with pytest.raises(ValueError):
        ket_from_angles(0.0, math.inf)
    with pytest.raises(ValueError):
        ket_from_angles(10**400, 0.0)  # past the float range, where math.isfinite overflows


def same_bits(x, y):
    """Equal arrays whose zeros also agree in sign, real and imaginary parts alike."""
    return np.array_equal(x, y) and all(
        np.array_equal(np.signbit(part(x)), np.signbit(part(y))) for part in (np.real, np.imag)
    )


def signed_operand(rng, shape, complex_):
    """Random entries with some real and imaginary parts set to -0.0 or +0.0 on purpose."""
    parts = [rng.standard_normal(shape) for _ in range(1 + complex_)]
    for part in parts:
        part[rng.random(shape) < 0.2] = -0.0
        part[rng.random(shape) < 0.1] = 0.0
    return parts[0] + 1j * parts[1] if complex_ else parts[0]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    dims=st.tuples(*[st.sampled_from([1, 2, 4, 8])] * 2),
    complex_=st.tuples(st.booleans(), st.booleans()),
)
def test_kron_matches_numpy_kron_bit_for_bit(seed, dims, complex_):
    rng = np.random.default_rng(seed)
    a = signed_operand(rng, (dims[0], dims[0]), complex_[0])
    b = signed_operand(rng, (dims[1], dims[1]), complex_[1])
    assert same_bits(kron(a, b), np.kron(a, b))
    stack = signed_operand(rng, (5, 2, 2), complex_[0])
    assert same_bits(kron(stack, b), np.array([np.kron(m, b) for m in stack]))


def test_partial_trace_product_state(rng):
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 2)
    rho = np.kron(rho_a, rho_b)
    assert np.abs(partial_trace(rho, [1]) - rho_a).max() < 1e-14
    assert np.abs(partial_trace(rho, [2]) - rho_b).max() < 1e-14


def test_partial_trace_keep_order_swaps(rng):
    parts = [random_density(rng, 2) for _ in range(3)]
    rho = np.kron(np.kron(parts[0], parts[1]), parts[2])
    swapped = partial_trace(rho, [3, 1])
    assert np.abs(swapped - np.kron(parts[2], parts[0])).max() < 1e-14


def test_partial_trace_bell_state():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    rho = np.outer(bell, bell.conj())
    assert np.abs(partial_trace(rho, [1]) - ID2 / 2).max() < 1e-14
    assert np.abs(partial_trace(rho, [2]) - ID2 / 2).max() < 1e-14


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), keep=st.sampled_from([(1,), (2,), (3,), (1, 2), (2, 3), (1, 3)]))
def test_partial_trace_preserves_trace_and_hermiticity(seed, keep):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 8)
    out = partial_trace(rho, list(keep))
    assert out.shape == (2 ** len(keep),) * 2
    assert abs(complex(np.trace(out)) - 1.0) < 1e-12
    assert np.abs(out - out.conj().T).max() < 1e-12


def test_partial_trace_validation(rng):
    rho = random_density(rng, 4)
    for keep in ([], [1, 2], [0], [3], [1, 1], [1.5], [1.0], [True], 1, None):
        with pytest.raises(ValueError):
            partial_trace(rho, keep)
    for bad in (np.zeros((2, 4)), np.zeros(4), *(np.eye(dim) for dim in (0, 1, 3, 6, 16))):
        with pytest.raises(ValueError):
            partial_trace(bad, [1])


@pytest.mark.parametrize("dim, keep", [(4, [2]), (4, [1]), (8, [1]), (8, [3, 1]), (8, [2, 3])])
def test_stacked_partial_trace_equals_each_slice_bit_for_bit(rng, dim, keep):
    stack = np.array([random_density(rng, dim) for _ in range(6)]).reshape(2, 3, dim, dim)
    got = partial_trace(stack, keep)
    assert got.shape == (2, 3) + (2 ** len(keep),) * 2
    for idx in np.ndindex(2, 3):
        assert got[idx].tobytes() == partial_trace(stack[idx], keep).tobytes()


def test_fidelity_pure_matches_quadratic_form(rng):
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = z / np.linalg.norm(z)
    rho = random_density(rng, 4)
    want = (psi.conj() @ rho @ psi).real
    assert abs(fidelity_pure(psi, rho) - want) < 1e-14
    assert abs(fidelity_pure(psi, np.outer(psi, psi.conj())) - 1.0) < 1e-14


def test_fidelity_pure_validation():
    with pytest.raises(ValueError):
        fidelity_pure(np.array([1.0, 0.0]), np.eye(4))
    skew = np.array([[0.0, 1j], [0.0, 0.0]])  # <+|skew|+> = i/2
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    with pytest.raises(ValueError):
        fidelity_pure(plus, skew)
    with pytest.raises(ValueError):
        fidelity_pure(np.array([2.0, 0.0]), np.eye(2) / 2)  # not unit norm
    infinite = np.eye(2) / 2
    infinite[0, 1] = np.inf
    for bad in (np.full((2, 2), np.nan), infinite):
        with pytest.raises(ValueError, match="non-finite"):
            fidelity_pure(plus, bad)
    # ValueError, as check_state and check_choi give, not np.isfinite's TypeError
    mixed = np.array([[0.5, "0"], [None, 0.5]], dtype=object)
    for bad in (np.full((2, 2), None), np.full((2, 2), "0.5"), mixed):
        with pytest.raises(ValueError, match="non-numeric"):
            fidelity_pure(plus, bad)


def test_haar_random_state_basics():
    a = haar_random_state(np.random.default_rng(5))
    b = haar_random_state(np.random.default_rng(5))
    assert a.shape == (2,)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12
    assert np.array_equal(a, b)  # seeded draws are reproducible
    # two draws of two normals, real parts first, divided by np.linalg.norm: the
    # circuits rows depend on this order and on these bits
    rng, again = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(3000):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert haar_random_state(again).tobytes() == (z / np.linalg.norm(z)).tobytes()


@pytest.mark.parametrize("shape", [(), (1,), (7,), (4, 5)])
def test_stacked_haar_draws_are_consecutive_lone_draws_bit_for_bit(shape):
    stacked = haar_random_state(np.random.default_rng(11), shape)
    rng = np.random.default_rng(11)
    lone = [haar_random_state(rng) for _ in range(math.prod(shape))]
    assert stacked.shape == (*shape, 2)
    assert stacked.tobytes() == np.array(lone).tobytes()


def test_check_state():
    psi = np.array([1.0, 0.0])
    assert check_state(psi) is psi
    with pytest.raises(ValueError):
        check_state(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        check_state(np.ones(3) / 3**0.5, 2)  # unit norm, but not one qubit
    stack = np.array([[[1.0, 0.0], [0.0, 1j]], [[0.6, 0.8j], [-0.8, 0.6]]])
    assert check_state(stack) is stack  # leading axes are a stack
    bad = stack.copy()
    bad[1, 0] *= 1.5  # one row off the unit sphere
    for psi in (bad, np.full((2, 2), math.nan)):
        with pytest.raises(ValueError, match="norm"):
            check_state(psi)
    assert check_state(stack, 2) is stack  # given a size, every state of a stack has that many amplitudes
    with pytest.raises(ValueError, match="vector of 2"):
        check_state(np.ones((2, 3)) / 3**0.5, 2)
    with pytest.raises(ValueError, match="dimensions"):
        fidelity_pure(stack[0], np.eye(2) / 2)  # two states against one matrix
    for call in (partial(equal_up_to_global_phase, "ab", "ab"), partial(fidelity_pure, "ab", np.eye(2))):
        with pytest.raises(ValueError, match="must be numbers"):
            call()


# --- the input checks every module shares --------------------------------------------

_SCORE = score_operator(PriorDistribution.mirror(1.0))


@pytest.mark.parametrize(
    "call, name",
    [
        (partial(optimize_map, _SCORE, max_iter=True), "max_iter"),
        (partial(optimize_map, _SCORE, max_iter=2.0), "max_iter"),
        (partial(optimize_map, _SCORE, seed=True), "seed"),
        (partial(optimize_map, _SCORE, seed=-1), "seed"),
        (partial(optimize_batch, _SCORE[None], [1.0]), "seed"),
        (partial(uc_fidelity, True), "number of copies"),
        (partial(uc_fidelity, 2.0), "number of copies"),
        (partial(partial_trace, np.eye(4), [True]), "qubit index"),
        (partial(partial_trace, np.eye(4), [np.int64(3)]), "qubit index"),
        (partial(haar_random_state, np.random.default_rng(0), 3), "state shape"),
        (partial(haar_random_state, np.random.default_rng(0), (2.5,)), "state shape"),
        (partial(haar_random_state, np.random.default_rng(0), True), "state shape"),
    ],
    ids=lambda v: v.func.__name__ if isinstance(v, partial) else None,
)
def test_integer_inputs_reject_bools_floats_and_out_of_range(call, name):
    with pytest.raises(ValueError, match=name):
        call()


@pytest.mark.parametrize("bad", [True, np.True_])
@pytest.mark.parametrize(
    "call",
    [
        lambda bad: optimize_map(mirror_scores([1.0])[0], tol=bad),
        lambda bad: PriorDistribution(((0.5, bad),)),
        lambda bad: mpcc_clone_bloch(0.5, bad),
        lambda bad: Gate("ROTY", (1,), (bad,)),
        lambda bad: eqneighbor_propagator(1.0, bad),
    ],
    ids=["optimize_map tol", "PriorDistribution weight", "mpcc_clone_bloch phi", "Gate param",
         "eqneighbor_propagator kappa"],
)
def test_real_inputs_reject_bools(call, bad):
    # a bool is no real number: tol=True would otherwise stop optimize_map after one iteration;
    # eqneighbor_propagator names its rates as Python scalars, so np.True_ as True
    with pytest.raises(ValueError, match=r"True_? is not finite or not a real number"):
        call(bad)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--steps", "1"], "steps 1 is not an integer from 2 to"),
        (["optimize", "--steps", "2", "--seeds", "0"], "seeds 0 is not an integer >= 1"),
    ],
)
def test_integer_flags_exit_2_naming_the_flag(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_check_int_returns_python_ints():
    assert type(check_int(np.int64(3), "n", 1, 3)) is int
    assert check_int(10**400, "seed", 0) == 10**400  # an int past the float range is still an int
    assert type(uc_fidelity(np.int64(2))) is float
    assert uc_fidelity(np.int64(2)) == uc_fidelity(2)
    with pytest.raises(ValueError, match=r"^n 0 is not an integer >= 1$"):
        check_int(0, "n", 1)
    with pytest.raises(ValueError, match=r"^n 4 is not an integer from 1 to 3$"):
        check_int(4, "n", 1, 3)
    for bad in ("2", None, math.nan, 1j):
        with pytest.raises(ValueError, match="is not finite or not a real number"):
            check_int(bad, "n", 1)


def test_stacked_check_choi():
    good = np.array([mpcc_choi(theta) for theta in (0.0, 0.4, 1.9)] + [uc_choi()])
    assert check_choi(good) is good
    for i in range(len(good)):
        for defect in (np.eye(8) * 1e-3, -1e-3 * np.outer(np.eye(8)[3], np.eye(8)[3])):
            bad = good.copy()
            bad[i] += defect  # one slice off trace preservation or positivity
            with pytest.raises(ValueError):
                check_choi(bad)
    with pytest.raises(ValueError):
        check_choi(np.zeros((0, 8, 8)))
    # the single-channel users still reject a stack that check_choi passes
    with pytest.raises(ValueError):
        clone(np.array([1.0, 0.0]), good)
    with pytest.raises(ValueError):
        average_fidelity(good, _SCORE)


def test_check_choi_and_its_users_reject_non_numeric_arrays():
    # ValueError, as check_state and check_scores give, not np.isfinite's TypeError
    for bad in (np.full((8, 8), None), np.full((8, 8), "0.125")):
        for call in (check_choi, partial(clone, np.array([1.0, 0.0])), partial(average_fidelity, score=_SCORE)):
            with pytest.raises(ValueError, match="process matrix must be 8x8 numbers"):
                call(bad)


def test_no_module_imports_a_private_name_from_a_sibling():
    private = []
    for path in sorted(Path(mirrorclone.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("mirrorclone")):
                private += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []


def test_every_public_name_is_reached():
    # reached: loaded by another top-level statement of the package (re-exports in
    # __init__.py do not count), or named in README.md, the acceptance tests or perfbench
    root = Path(__file__).resolve().parents[1]
    public, loaded = [], set()
    for path in sorted(Path(mirrorclone.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt]
            own = {getattr(t, "name", getattr(t, "id", None)) for t in targets}
            if path.name != "__main__.py" and isinstance(stmt, (ast.FunctionDef, ast.ClassDef, ast.Assign)):
                public += [f"{path.name}: {n}" for n in sorted(own - {None}) if not n.startswith("_")]
            for node in ast.walk(stmt):
                name = getattr(node, "id", getattr(node, "attr", None))
                if isinstance(getattr(node, "ctx", None), ast.Load) and name not in own:
                    loaded.add(name)
    docs = [root / "README.md", root / "tests" / "test_acceptance.py", *(root / "perfbench").glob("*.py")]
    words = set(re.findall(r"\w+", " ".join(p.read_text() for p in docs)))
    assert [entry for entry in public if entry.split(": ")[1] not in loaded | words] == []
