"""Canonicity checked by circuit equivalence at scale.

Circuits that are equal by rewrite rules must give the identical handle
on the complex instance, at widths no dense oracle reaches: each check
is one ``is`` comparison, and the result must also pass ``validate``.
"""

import math
import random

import pytest

from wcflobdd.core import validate
from wcflobdd.matrix import matrix_multiply
from wcflobdd.quantum import (Circuit, build_gate, ghz, qft, quantum_forest,
                              run_circuit)


def _same_state(rewritten, circuit):
    f = quantum_forest()
    state = run_circuit(rewritten, f).diagram
    assert state is run_circuit(circuit, f).diagram
    assert validate(state) == []


@pytest.mark.parametrize("n", [256, 1024])
def test_ghz_with_each_cnot_as_h_cp_h(n):
    c = Circuit(n).h(0)
    for q in range(n - 1):
        c.h(q + 1).cp(math.pi, q, q + 1).h(q + 1)
    _same_state(c, ghz(n))


@pytest.mark.parametrize("n", [16, 32])
def test_qft_with_reversed_ladders_and_mirrored_swaps(n):
    basis = 12345 % 2 ** n
    c = Circuit(n)
    for q in range(n):
        if (basis >> (n - 1 - q)) & 1:
            c.x(q)
    for q in range(n):
        c.h(q)
        for k in reversed(range(q + 1, n)):
            c.cp(math.pi / (1 << (k - q)), k, q)
    for q in range(n // 2):
        other = n - 1 - q
        c.cnot(other, q).cnot(q, other).cnot(other, q)
    _same_state(c, qft(n, basis))


@pytest.mark.parametrize("n", [16, 1024])
def test_cp_is_symmetric_in_control_and_target(n):
    f = quantum_forest()
    gate = build_gate(f, ("CP", 0.7, 3, n - 2), n)
    assert build_gate(f, ("CP", 0.7, n - 2, 3), n) is gate
    assert validate(gate) == []


@pytest.mark.parametrize("n", [16, 1024])
def test_x_as_h_phase_h_inside_a_circuit(n):
    def circuit(x):
        c = Circuit(n).h(0).cnot(0, n - 1).cp(0.3, n - 1, 1).h(n // 2)
        x(c, n // 2)
        return c.cnot(n // 2, 2).h(n - 1)

    _same_state(circuit(lambda c, q: c.h(q).phase(math.pi, q).h(q)),
                circuit(lambda c, q: c.x(q)))


def _random_circuit(n, seed, kinds, count=40):
    """``count`` seeded gates of ``kinds`` over eight qubits spread across
    the register, so that the gates meet each other."""
    rng = random.Random(seed)
    qubits = rng.sample(range(n), 8)
    gates = []
    for _ in range(count):
        kind = rng.choice(kinds)
        angles = (rng.uniform(-math.pi, math.pi),) if kind in ("PHASE",
                                                               "CP") else ()
        width = 2 if kind in ("CNOT", "CP") else 1
        gates.append((kind, *angles, *rng.sample(qubits, width)))
    return gates


def _qubits(gate):
    return {q for q in gate[1:] if isinstance(q, int)}


def _swap_disjoint_neighbours(gates):
    """The gate list with each adjacent pair on disjoint qubits swapped,
    pairs taken left to right without overlap; also the swap count."""
    out = list(gates)
    swaps = 0
    i = 0
    while i + 1 < len(out):
        if _qubits(out[i]).isdisjoint(_qubits(out[i + 1])):
            out[i], out[i + 1] = out[i + 1], out[i]
            swaps += 1
            i += 2
        else:
            i += 1
    return out, swaps


def _circuit(n, gates):
    c = Circuit(n)
    for kind, *args in gates:
        getattr(c, kind.lower())(*args)
    return c


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [256, 1024])
def test_random_circuit_with_commuting_gates_swapped(n, seed):
    gates = _random_circuit(n, seed, ("H", "X", "PHASE", "CNOT", "CP"))
    swapped, swaps = _swap_disjoint_neighbours(gates)
    assert swaps >= 5
    _same_state(_circuit(n, swapped), _circuit(n, gates))


@pytest.mark.parametrize("n", [256, 1024])
def test_swap_as_three_cnots_in_either_orientation(n):
    a, b = 5, n - 7

    def swap(first, second):
        c = Circuit(n).h(a).phase(0.4, a).cnot(a, 9).h(b).x(n - 1)
        c.cp(1.1, b, n - 1)
        return c.cnot(first, second).cnot(second, first).cnot(first, second)

    _same_state(swap(b, a), swap(a, b))


def _unitary(f, n, gates):
    u = build_gate(f, gates[0], n)
    for gate in gates[1:]:
        u = matrix_multiply(build_gate(f, gate, n), u)
    return u


@pytest.mark.parametrize("n", [16, 64])
def test_unitary_with_commuting_gates_swapped(n):
    gates = _random_circuit(n, 7, ("H", "X", "CNOT"))
    swapped, swaps = _swap_disjoint_neighbours(gates)
    assert swaps >= 5
    f = quantum_forest()
    u = _unitary(f, n, gates)
    assert _unitary(f, n, swapped) is u
    assert validate(u) == []


# Angles whose effect on an amplitude lies past the fourth decimal
# place, so that a weight key rounded to 4 digits would merge them.
THETA = 1e-5


@pytest.mark.parametrize("n", [16, 256])
def test_a_phase_past_the_fourth_digit_changes_the_state(n):
    f = quantum_forest()
    flipped = run_circuit(Circuit(n).x(3), f).diagram
    phased = run_circuit(Circuit(n).x(3).phase(THETA, 3), f).diagram
    assert phased is not flipped
    assert validate(phased) == []


@pytest.mark.parametrize("n", [16, 256])
def test_phases_past_the_fourth_digit_add_up(n):
    split = Circuit(n).h(0).h(5).phase(THETA, 5).phase(THETA, 5)
    merged = Circuit(n).h(0).h(5).phase(2 * THETA, 5)
    _same_state(merged.cp(THETA, 5, 0), split.cp(THETA, 0, 5))
