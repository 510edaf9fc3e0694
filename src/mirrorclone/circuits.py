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
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(check_qubits(self.qubits, 3)))
        object.__setattr__(self, "params", tuple(check_sequence(self.params, "gate params")))
        n_wires, n_params = GATE_ARITY[self.kind]
        if len(self.qubits) != n_wires:
            raise ValueError(f"{self.kind} takes {n_wires} qubit indices")
        if len(self.params) != n_params:
            raise ValueError(f"{self.kind} takes {n_params} parameters")
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
    check_finite(angle, "rotation angle")
    signed = angle if polarity == "11" else -angle
    core = [
        Gate("CR", (2, 3), (signed / 2.0,)),
        Gate("CNOT", (1, 2)),
        Gate("CR", (2, 3), (-signed / 2.0,)),
        Gate("CNOT", (1, 2)),
        Gate("CR", (1, 3), (signed / 2.0,)),
    ]
    if polarity == "11":
        return core
    flips = [Gate("NOT", (1,)), Gate("NOT", (2,))]
    return flips + core + flips


def rotation_angle(theta: float) -> float:
    """Preparation angle 2*arccos(lam) used by the first circuit."""
    return 2.0 * math.acos(mpcc_params(theta).lam)


def circuit_mpcc_v1(theta: float) -> Circuit:
    """First realization: one y-rotation, one controlled Hadamard, three CNOTs."""
    return Circuit(
        (
            Gate("ROTY", (3,), (rotation_angle(theta),)),
            Gate("CH", (3, 2)),
            Gate("CNOT", (1, 3)),
            Gate("CNOT", (2, 1)),
            Gate("CNOT", (3, 2)),
        )
    )


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


def interaction_time(theta: float, kappa: float) -> float:
    """Interaction time that loads the optimal mixing amplitude.

    Chosen so sqrt(2)*|hop amplitude| equals lam_bar:
    t = (2 / (3 kappa)) * arcsin(3 lam_bar / (2 sqrt(2))); ValueError when t overflows.
    """
    if check_finite(kappa, "coupling rate") <= 0.0:
        raise ValueError("coupling rate must be positive")
    lam_bar = mpcc_params(theta).lam_bar
    return check_finite((2.0 / 3.0) * math.asin(1.5 * lam_bar / SQRT2) / kappa, "interaction time")


def circuit_mpcc_v2(theta: float, kappa: float = 1.0) -> Circuit:
    """Second realization: CNOT preparation, exchange evolution, phase repair.

    After the first three gates an input a|000> + b|100> sits at
    a|001> + b|110> exactly; the evolution then distributes amplitude and
    the two conditional phase rotations undo the relative phase
    2*(arg stay - arg hop) it picked up.
    """
    t = interaction_time(theta, kappa)
    stay, hop = propagator_coefficients(t, kappa)
    correction = 2.0 * (cmath.phase(stay) - cmath.phase(hop))
    return Circuit(
        (
            Gate("CNOT", (1, 2)),
            Gate("CNOT", (1, 3)),
            Gate("NOT", (3,)),
            Gate("EVOLVE", (1, 2, 3), (t, kappa)),
            Gate("CCR", (1, 2, 3), (correction,)),
            Gate("CCR0", (1, 2, 3), (-correction,)),
            Gate("NOT", (3,)),
        )
    )


def circuit_matrix_batch(circuits) -> np.ndarray:
    """(N, 8, 8) unitaries of N >= 1 circuits of one layout, each gate position built as one stack."""
    circuits = check_sequence(circuits, "circuits")
    layouts = {tuple((g.kind, g.qubits) for g in c.gates) for c in circuits}
    if len(layouts) != 1:
        raise ValueError("need one or more circuits with the same gate kinds and qubits at each position")
    out = np.tile(np.eye(8, dtype=np.complex128), (len(circuits), 1, 1))
    for i, (kind, qubits) in enumerate(layouts.pop()):
        out = _gate_stack(kind, qubits, [c.gates[i].params for c in circuits]) @ out
    return out


def circuit_matrix(circuit: Circuit) -> np.ndarray:
    """Composed 8x8 unitary of a circuit."""
    return circuit_matrix_batch([circuit])[0]


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
    lines = []
    for g in circuit.gates:
        parts = [g.kind, *(str(q) for q in g.qubits), *(f"{p:.17g}" for p in g.params)]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    """Inverse of serialize_circuit; blank lines and # comments are skipped."""
    gates = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *tokens = line.split()
        n = GATE_ARITY.get(kind, (0, 0))[0]  # Gate rejects an unknown kind and a wrong token count
        gates.append(Gate(kind, tuple(map(int, tokens[:n])), tuple(map(float, tokens[n:]))))
    return Circuit(tuple(gates))
