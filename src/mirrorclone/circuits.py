"""Gate-level realizations of the mirror machine on three qubits.

Register order is (qubit 1, qubit 2, qubit 3) with qubit 1 most
significant; the input state arrives on qubit 1 and the clones leave on
qubits 1 and 2.  Circuits store gates in application order; a gate is
built as Gate(kind, qubits, params), for example Gate("CNOT", (1, 3)).

Gate kinds:
  ROTY t angle     real y-rotation on qubit t
  NOT t            bit flip on qubit t
  CNOT c t         controlled flip
  CH c t           controlled Hadamard, built by conjugating CNOT
  CR c t angle     controlled phase rotation diag(e^{-ia/2}, e^{ia/2})
  CCR 1 2 3 angle  phase rotation on 3 when qubits 1,2 are both 1
  CCR0 1 2 3 angle same with both controls on 0 (open controls)
  EVOLVE 1 2 3 t k exchange-Hamiltonian propagator exp(-iHt)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cloners import SQRT2, mpcc_params
from .qcore import PAULI_X, check_finite, check_qubits, check_sequence, check_state, kron

# reflection that conjugates a bit flip into a Hadamard: A X A = H, A A = id
HADAMARD_CONJUGATOR = np.array(
    [[1.0, 1.0 + SQRT2], [1.0 + SQRT2, -1.0]], dtype=np.complex128
) / math.sqrt(4.0 + 2.0 * SQRT2)

# kind -> (number of qubit tokens, number of angle parameters)
GATE_ARITY = {
    "ROTY": (1, 1),
    "NOT": (1, 0),
    "CNOT": (2, 0),
    "CH": (2, 0),
    "CR": (2, 1),
    "CCR": (3, 1),
    "CCR0": (3, 1),
    "EVOLVE": (3, 2),
}


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(check_qubits(self.qubits, 3)))
        object.__setattr__(self, "params", tuple(check_sequence(self.params, "gate params")))
        if (len(self.qubits), len(self.params)) != GATE_ARITY[self.kind]:
            raise ValueError(f"{self.kind} needs (qubits, params) of lengths {GATE_ARITY[self.kind]}")
        for p in self.params:
            check_finite(p, "gate parameter")
        if self.kind in ("CCR", "CCR0", "EVOLVE") and self.qubits != (1, 2, 3):
            raise ValueError(f"{self.kind} acts on the fixed register (1, 2, 3)")


@dataclass(frozen=True)
class Circuit:
    """Sequence of gates in application order (first gate acts first)."""

    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(check_sequence(self.gates, "circuit gates")))
        if not all(isinstance(g, Gate) for g in self.gates):
            raise ValueError("circuit entries must be Gate instances")


def _on(u: np.ndarray, qubits) -> np.ndarray:
    """8x8 matrix of the 2^k x 2^k ``u`` on ``qubits`` (in that order), identity elsewhere; ``u`` may stack."""
    order = [*qubits, *(q for q in (1, 2, 3) if q not in qubits)]
    lead = u.shape[:-2]
    full = kron(u, np.eye(8 >> len(qubits))).reshape(lead + (2,) * 6)
    axes = [len(lead) + order.index(q) for q in (1, 2, 3)]
    return full.transpose([*range(len(lead)), *axes, *(a + 3 for a in axes)]).reshape(lead + (8, 8))


def _controlled(u: np.ndarray, n_controls: int, value: int = 1) -> np.ndarray:
    """Block-diagonal: ``u`` on the last qubit when all n_controls controls read ``value``; ``u`` may stack."""
    out = np.tile(np.eye(2 << n_controls, dtype=np.complex128), u.shape[:-2] + (1, 1))
    k = value * (out.shape[-1] - 2)  # first index of the block whose controls all read value
    out[..., k : k + 2, k : k + 2] = u
    return out


def _ry(angles) -> np.ndarray:
    """(N, 2, 2) real y-rotations; cos and sin are taken per angle by math."""
    c, s = np.array([(math.cos(a / 2.0), math.sin(a / 2.0)) for a in angles]).T
    return np.moveaxis(np.array([[c, -s], [s, c]], dtype=np.complex128), -1, 0)


def _rz(angles) -> np.ndarray:
    """(N, 2, 2) phase rotations diag(e^{-ia/2}, e^{ia/2}); exp is taken per angle by cmath."""
    u = np.zeros((len(angles), 2, 2), dtype=np.complex128)
    u[:, [0, 1], [0, 1]] = [(cmath.exp(-0.5j * a), cmath.exp(0.5j * a)) for a in angles]
    return u


def _gate_stack(kind: str, qubits: tuple[int, ...], params) -> np.ndarray:
    """Read-only (N, 8, 8) unitaries of one gate kind on ``qubits``, one per row of the (N, k) ``params``."""
    if kind == "EVOLVE":
        return eqneighbor_propagator(*np.transpose(params))
    if kind in ("NOT", "CNOT", "CH"):  # one matrix serves every row
        u = PAULI_X
    else:  # ROTY, or a phase rotation for CR, CCR and CCR0
        u = (_ry if kind == "ROTY" else _rz)([p[0] for p in params])
    m = _on(_controlled(u, len(qubits) - 1, 0 if kind == "CCR0" else 1), qubits)
    if kind == "CH":
        conj = _on(HADAMARD_CONJUGATOR, qubits[1:])
        m = conj @ m @ conj
    return np.broadcast_to(m, (len(params), 8, 8))


def gate_matrix(gate: Gate) -> np.ndarray:
    """8x8 unitary of a gate on the three-qubit register, a fresh writable array."""
    if not isinstance(gate, Gate):
        raise ValueError(f"{gate!r} is not a Gate")
    return _gate_stack(gate.kind, gate.qubits, [gate.params])[0].copy()


def decompose_ccr(angle: float, polarity: str = "11") -> list[Gate]:
    """Two-qubit-gate realization of the doubly controlled phase rotation.

    For polarity "11" the returned sequence composes to Gate("CCR", (1, 2, 3),
    (angle,)).  For polarity "00" the closed-control gate is conjugated with
    bit flips on both controls, which also negates the useful angle: the
    sequence composes to Gate("CCR0", (1, 2, 3), (-angle,)).
    """
    if polarity not in ("11", "00"):
        raise ValueError("polarity must be '11' or '00'")
    signed = (1 if polarity == "11" else -1) * check_finite(angle, "rotation angle")
    core = [Gate("CR", (2, 3), (signed / 2.0,)), Gate("CNOT", (1, 2)), Gate("CR", (2, 3), (-signed / 2.0,)),
            Gate("CNOT", (1, 2)), Gate("CR", (1, 3), (signed / 2.0,))]
    flips = [] if polarity == "11" else [Gate("NOT", (1,)), Gate("NOT", (2,))]
    return flips + core + flips


def mpcc_v1_params(theta) -> tuple | list[tuple]:
    """Params of MPCC_V1_LAYOUT's gates at ``theta``, a list of them for a column of angles.

    The y-rotation takes the preparation angle 2*arccos(lam).
    """
    lam = mpcc_params(theta).lam
    rows = [((2.0 * math.acos(x),), (), (), (), ()) for x in np.ravel(lam).tolist()]
    return rows if np.ndim(lam) else rows[0]


def circuit_mpcc_v1(theta: float) -> Circuit:
    """First realization: one y-rotation, one controlled Hadamard, three CNOTs."""
    return _circuit(MPCC_V1_LAYOUT, mpcc_v1_params(theta))


# --- exchange-interaction realization -------------------------------------

# |01><10| + |10><01|: swaps one excitation between two qubits
EXCHANGE = np.zeros((4, 4), dtype=np.complex128)
EXCHANGE[1, 2] = EXCHANGE[2, 1] = 1.0


def eqneighbor_hamiltonian(kappa: float) -> np.ndarray:
    """Exchange Hamiltonian coupling every qubit pair with equal strength.

    H = kappa * sum over the pairs (1,2), (1,3), (2,3) of EXCHANGE on that
    pair, which equals (kappa/2) * sum over ordered pairs n != m of
    raise_n lower_m + lower_n raise_m.  Conserves the excitation number;
    within each single-defect sector every pair of basis states is coupled
    with matrix element kappa.
    """
    check_finite(kappa, "coupling rate")
    return kappa * sum(_on(EXCHANGE, pair) for pair in ((1, 2), (1, 3), (2, 3)))


# eigendecomposition of the kappa = 1 Hamiltonian H0, which every kappa shares: H = kappa H0
_H0_W, _H0_V = np.linalg.eigh(eqneighbor_hamiltonian(1.0))


def eqneighbor_propagator(t, kappa) -> np.ndarray:
    """exp(-iHt) of the exchange Hamiltonian, a stack for arrays of t and kappa; 2*kappa*t must be finite."""
    t, kappa = np.broadcast_arrays(t, kappa)
    for t_i, kappa_i in zip(t.ravel().tolist(), kappa.ravel().tolist()):  # floats: overflow is inf, no warning
        kt = 2.0 * check_finite(kappa_i, "coupling rate") * check_finite(t_i, "evolution time")
        check_finite(kt, "phase 2*kappa*t")
    return (_H0_V * np.exp(-1j * (kappa[..., None] * _H0_W) * t[..., None])[..., None, :]) @ _H0_V.conj().T


def propagator_coefficients(t: float, kappa: float) -> tuple[complex, complex]:
    """Closed-form (stay, hop) amplitudes of the single-defect evolution.

    stay = (exp(-2i*k*t) + 2 exp(i*k*t)) / 3 is the amplitude to remain on
    the initial basis state, hop the amplitude on each of the other two;
    |stay|^2 + 2|hop|^2 = 1.  The same pair governs both defect numbers.
    """
    kt = check_finite(kappa, "coupling rate") * check_finite(t, "evolution time")
    check_finite(2.0 * kt, "phase 2*kappa*t")
    stay = (cmath.exp(-2j * kt) + 2.0 * cmath.exp(1j * kt)) / 3.0
    hop = (2.0 / 3.0) * math.sin(1.5 * kt) * cmath.exp(-0.5j * (math.pi + kt))
    return stay, hop


def interaction_time(theta, kappa: float) -> float | list[float]:
    """Interaction time that loads the optimal mixing amplitude, a list of them for a column of angles.

    Chosen so sqrt(2)*|hop amplitude| equals lam_bar:
    t = (2 / (3 kappa)) * arcsin(3 lam_bar / (2 sqrt(2))); ValueError when t overflows.
    """
    if check_finite(kappa, "coupling rate") <= 0.0:
        raise ValueError("coupling rate must be positive")
    lam_bar = mpcc_params(theta).lam_bar
    times = [check_finite((2.0 / 3.0) * math.asin(1.5 * x / SQRT2) / kappa, "interaction time")
             for x in np.ravel(lam_bar).tolist()]
    return times if np.ndim(lam_bar) else times[0]


def mpcc_v2_params(theta, kappa: float = 1.0) -> tuple | list[tuple]:
    """Params of MPCC_V2_LAYOUT's gates at ``theta``, a list of them for a column of angles.

    They are the evolution's (time, kappa) and the two phase repairs.  The first three gates take an input
    a|000> + b|100> exactly to a|001> + b|110>; the evolution distributes amplitude and the two phase
    rotations undo the relative phase 2*(arg stay - arg hop).
    """
    times, rows = interaction_time(theta, kappa), []
    for t in np.ravel(times).tolist():
        stay, hop = propagator_coefficients(t, kappa)
        correction = 2.0 * (cmath.phase(stay) - cmath.phase(hop))
        rows.append(((), (), (), (t, kappa), (correction,), (-correction,), ()))
    return rows if np.ndim(times) else rows[0]


def circuit_mpcc_v2(theta: float, kappa: float = 1.0) -> Circuit:
    """Second realization: CNOT preparation, exchange evolution, phase repair."""
    return _circuit(MPCC_V2_LAYOUT, mpcc_v2_params(theta, kappa))


# each variant's (kind, qubits) pairs in application order
MPCC_V1_LAYOUT = (("ROTY", (3,)), ("CH", (3, 2)), ("CNOT", (1, 3)), ("CNOT", (2, 1)), ("CNOT", (3, 2)))
MPCC_V2_LAYOUT = (("CNOT", (1, 2)), ("CNOT", (1, 3)), ("NOT", (3,)), ("EVOLVE", (1, 2, 3)),
                  ("CCR", (1, 2, 3)), ("CCR0", (1, 2, 3)), ("NOT", (3,)))


def _circuit(layout, params) -> Circuit:
    """The Circuit of ``layout``'s (kind, qubits) pairs with one params tuple per gate."""
    return Circuit([Gate(kind, qubits, p) for (kind, qubits), p in zip(layout, params, strict=True)])


def _check_rows(layout, rows) -> tuple[list, list]:
    """``layout`` and ``rows`` as lists if ``rows`` holds N >= 1 rows of finite params, one tuple per gate."""
    try:  # Gate checks the layout against the first row, and every row must have that row's lengths
        layout, rows = check_sequence(layout, "layout"), [list(r) for r in rows]
        shape = [len(g.params) for g in _circuit(layout, rows[0]).gates]
        if all(list(map(len, r)) == shape for r in rows):
            for v in (v for r in rows[1:] for p in r for v in p):
                check_finite(v, "gate parameter")  # the check Gate makes of the first row's
            return layout, rows
    except (TypeError, IndexError):  # no row, or a row or layout entry of the wrong type
        pass
    raise ValueError("need one or more rows of finite params, one tuple per gate of the layout")


def compose_layout(layout, rows) -> np.ndarray:
    """(N, 8, 8) unitaries of N circuits of one layout, each gate one stack built from its params column."""
    layout, rows = _check_rows(layout, rows)
    out = np.tile(np.eye(8, dtype=np.complex128), (len(rows), 1, 1))
    for (kind, qubits), column in zip(layout, zip(*rows)):
        out = _gate_stack(kind, qubits, column) @ out
    return out


def layout_text(layout, rows) -> list[str]:
    """Each row's text: one line per gate of KIND, qubit indices, then params (17 significant digits)."""
    layout, rows = _check_rows(layout, rows)
    return ["\n".join(" ".join([kind, *map(str, qubits), *(f"{p:.17g}" for p in ps)])
                      for (kind, qubits), ps in zip(layout, row)) + "\n" for row in rows]


def _split(circuit: Circuit) -> tuple[tuple, list]:
    """A circuit's layout and its one row of params, else ValueError."""
    if not isinstance(circuit, Circuit):
        raise ValueError(f"{circuit!r} is not a Circuit")
    return tuple((g.kind, g.qubits) for g in circuit.gates), [tuple(g.params for g in circuit.gates)]


def circuit_matrix(circuit: Circuit) -> np.ndarray:
    """Composed 8x8 unitary of a circuit."""
    return compose_layout(*_split(circuit))[0]


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray):
    """Whether two unit vectors, or two equal-shape stacks of them, agree up to a global phase.

    Returns (equal, residual) over the stack axes, residual = 1 - |<a|b>|, equal when <= 1e-10.
    """
    a, b = check_state(a), check_state(b)
    if a.shape != b.shape:
        raise ValueError("states must have equal shape")
    overlap = np.vecdot(a, b)
    residual = 1.0 - np.hypot(overlap.real, overlap.imag)  # np.abs can be one ulp off abs(complex)
    return residual <= 1e-10, residual


def serialize_circuit(circuit: Circuit) -> str:
    """One gate per line: KIND, qubit indices, then angles (17 significant digits)."""
    return layout_text(*_split(circuit))[0]


def parse_circuit(text: str) -> Circuit:
    """Inverse of serialize_circuit; blank lines and # comments are skipped."""
    if not isinstance(text, str):
        raise ValueError(f"circuit text {text!r} is not a str")
    gates = []
    for kind, *tokens in filter(None, map(str.split, text.splitlines())):
        if not kind.startswith("#"):
            n = GATE_ARITY.get(kind, (0, 0))[0]  # Gate rejects an unknown kind and a wrong token count
            gates.append(Gate(kind, tuple(map(int, tokens[:n])), tuple(map(float, tokens[n:]))))
    return Circuit(tuple(gates))
