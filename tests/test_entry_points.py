"""Every callable export of the package returns or raises ValueError, whatever it is handed.

One valid base call per export; each argument is then replaced in turn by
each value of a pool of bad ones.  A call may return or raise ValueError,
nothing else, and a process matrix it returns must pass check_choi.
"""

import math
import reprlib

import numpy as np

import mirrorclone as mc
from mirrorclone.qcore import check_choi

PSI = np.array([0.6, 0.8j])
SCORE = mc.score_operator(mc.PriorDistribution.mirror(0.3))
PRIOR = mc.PriorDistribution.mirror(0.3)
GATE = mc.Gate("CR", (1, 2), (0.5,))
CIRCUIT = mc.Circuit((GATE, mc.Gate("NOT", (3,))))
RUN = mc.optimize_map(SCORE, 0, 1e-3, 3)

BAD = (None, "x", True, np.True_, math.nan, math.inf, -1, -0.5, 10**400, 1e308, [], [[1.0]], (), np.eye(3),
       np.full((8, 8), math.nan), object(), 1j, np.array([0.0, 1.0]), [0.5, "a"], {"a": 1})

# one valid call per export, by its positional arguments; defaulted ones are given too, so they are swept
BASE = {
    "check_choi": (mc.uc_choi(),),
    "fidelity_pure": (PSI, np.outer(PSI, PSI.conj())),
    "haar_random_state": (np.random.default_rng(0), (2,)),
    "ket_from_angles": (0.3, 0.2),
    "partial_trace": (mc.uc_choi(), [1]),
    "PriorDistribution": (((0.3, 0.25), (2.0, 0.75)),),
    "PriorDistribution.mirror": (0.3,),
    "PriorDistribution.phase_covariant": (0.3,),
    "PriorDistribution.universal": (),
    "average_fidelity": (mc.uc_choi(), SCORE),
    "average_fidelity_direct": (mc.uc_choi(), PRIOR),
    "r_theta": (0.3,),
    "score_operator": (PRIOR,),
    "score_operator_quadrature": (PRIOR,),
    "MpccParams": tuple(vars(mc.mpcc_params(0.3)).values()),
    "choi_from_weights": (0.5, 0.25, 0.2),
    "clone": (PSI, mc.uc_choi()),
    "mpcc_choi": (0.3,),
    "mpcc_clone_bloch": (0.3, 0.2),
    "mpcc_fidelity": (0.3,),
    "mpcc_isometry_apply": (0.3, PSI),
    "mpcc_params": (0.3,),
    "pcc_clone_bloch": (0.3, 0.2),
    "pcc_fidelity": (0.3,),
    "uc_choi": (),
    "uc_clone_bloch": (0.3, 0.2),
    "uc_fidelity": (2,),
    "OptimalityCertificate": tuple(vars(mc.certificate(0.3)).values()),
    "OptimizeResult": tuple(vars(RUN).values()),
    "certificate": (0.3,),
    "optimize_batch": (SCORE[None], [0], 1e-3, 3),
    "optimize_map": (SCORE, 0, 1e-3, 3),
    "Circuit": (CIRCUIT.gates,),
    "Gate": ("CR", (1, 2), (0.5,)),
    "circuit_matrix": (CIRCUIT,),
    "circuit_mpcc_v1": (0.3,),
    "circuit_mpcc_v2": (0.3, 1.0),
    "decompose_ccr": (0.5, "00"),
    "eqneighbor_hamiltonian": (1.0,),
    "eqneighbor_propagator": (0.5, 1.0),
    "equal_up_to_global_phase": (PSI, PSI),
    "gate_matrix": (GATE,),
    "interaction_time": (0.3, 1.0),
    "parse_circuit": ("CNOT 1 2\nCR 2 3 0.5\n",),
    "propagator_coefficients": (0.5, 1.0),
    "serialize_circuit": (CIRCUIT,),
}

# the exports that hand back process matrices, and how to read them off the result; an empty
# column of angles or weights gives an empty stack, which holds no matrix to check
CHANNELS = {
    "check_choi": lambda chi: chi,
    "choi_from_weights": lambda chi: chi,
    "mpcc_choi": lambda chi: chi,
    "uc_choi": lambda chi: chi,
    "optimize_map": lambda run: run.chi_star,
    "optimize_batch": lambda runs: np.array([run.chi_star for run in runs]),
}


def _export(name: str):
    """The export, or the static method of one, that a BASE key names."""
    func = mc
    for part in name.split("."):
        func = getattr(func, part)
    return func


def _leak(name: str, args: tuple) -> str | None:
    """None if the call raises ValueError or returns (a channel, for CHANNELS), else what went wrong."""
    try:
        result = _export(name)(*args)
    except ValueError:
        return None
    except Exception as exc:  # any other type is the finding
        return f"{type(exc).__name__}: {exc}"
    try:
        channels = CHANNELS[name](result) if name in CHANNELS else []
        if np.size(channels):
            check_choi(channels)
    except ValueError as exc:
        return f"returned a non-channel: {exc}"
    return None


def test_every_export_returns_or_raises_value_error():
    exports = {name for name in dir(mc) if not name.startswith("_") and callable(getattr(mc, name))}
    assert not exports - BASE.keys(), f"exports with no base call: {sorted(exports - BASE.keys())}"
    leaks = []
    for name, args in BASE.items():
        result = _export(name)(*args)  # the base call itself returns
        if name in CHANNELS:
            check_choi(CHANNELS[name](result))
        for i in range(len(args)):
            for bad in BAD:
                leak = _leak(name, args[:i] + (bad,) + args[i + 1 :])
                if leak is not None:
                    leaks.append(f"{name}, argument {i} = {reprlib.repr(bad)}: {leak}")
    assert not leaks, "\n".join(leaks)
