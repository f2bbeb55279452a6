"""Canonicity checked by circuit equivalence at scale.

Circuits that are equal by rewrite rules must give the identical handle
on the complex instance, at widths no dense oracle reaches: each check
is one ``is`` comparison, and the result must also pass ``validate``.
"""

import math

import pytest

from wcflobdd.core import validate
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
