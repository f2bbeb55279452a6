"""Gate construction and circuit runs against a dense simulator."""

import cmath
import gc
import math
import random

import numpy as np
import pytest

from wcflobdd.core import Forest, reachable_groupings, size, validate
from wcflobdd.construct import (fold, hadamard_family, identity_matrix,
                                identity_proto, not_matrix, unfold,
                                walsh_family)
from wcflobdd.matrix import (_monomial, _symbolic_product,
                             apply_matrix_to_vector, kronecker,
                             matrix_multiply)
from wcflobdd.pointwise import add
from wcflobdd.quantum import (Circuit, QuantumState, amplitude, basis_state,
                              bernstein_vazirani, build_gate, deutsch_jozsa,
                              ghz, grover, measure, parse_circuit, qft,
                              quantum_forest, run_circuit, state_vector)
from wcflobdd.semifield import field_by_name
from wcflobdd.serialize import dump_diagram

import oracle


def _deinterleave(flat, half):
    side = 1 << half
    out = np.zeros((side, side), dtype=complex)
    for idx in range(side * side):
        r = c = 0
        for j in range(half):
            pair = (idx >> (2 * (half - 1 - j))) & 3
            r = (r << 1) | (pair >> 1)
            c = (c << 1) | (pair & 1)
        out[r][c] = flat[idx]
    return out


def test_single_qubit_gate_tables():
    f = quantum_forest()
    got = unfold(build_gate(f, ("H", 0), 1))
    r = 2 ** -0.5
    assert np.allclose(got, [r, r, r, -r])
    m = _deinterleave(unfold(build_gate(f, ("X", 0), 1)), 1)
    assert np.allclose(m, [[0, 1], [1, 0]])


def test_controlled_gates_match_dense():
    f = quantum_forest()
    cases = (("CNOT", 0, 1), ("CNOT", 0, 3), ("CNOT", 2, 0),
             ("CP", math.pi / 4, 1, 3))
    for gate in cases:
        n = 1 + max(q for q in gate[1:] if isinstance(q, int))
        p = 1
        while p < n:
            p <<= 1
        m = _deinterleave(unfold(build_gate(f, gate, n)), p)
        assert np.allclose(m, oracle.dense_gate(gate, p)), gate


def test_controlled_gates_match_dense_at_width_8():
    """Control/target pairs whose smallest common block has width 2
    (left half), 4 (right half) and 8, in both orders."""
    f = quantum_forest()
    for a, b in ((2, 3), (3, 2), (4, 6), (6, 4), (1, 6), (6, 1)):
        for gate in (("CNOT", a, b), ("CP", math.pi / 3, a, b)):
            m = np.array(oracle.to_dense(build_gate(f, gate, 8)))
            assert np.allclose(m, oracle.dense_gate(gate, 8)), gate


def _balanced_kron(factors):
    if len(factors) == 1:
        return factors[0]
    mid = len(factors) // 2
    return kronecker(_balanced_kron(factors[:mid]),
                     _balanced_kron(factors[mid:]))


def test_controlled_gates_are_the_full_width_projection_sum():
    """build_gate gives the handle of |0><0|_a (x) I + |1><1|_a (x) U_b
    assembled over all 16 qubits, for every ordered pair."""
    f = quantum_forest()
    one, zero = f.field.one, f.field.zero
    p0 = fold(f, [one, zero, zero, zero])
    p1 = fold(f, [zero, zero, zero, one])
    i1 = identity_matrix(f, 1)
    theta = math.pi / 3
    us = {"CNOT": not_matrix(f, 1),
          "CP": fold(f, [one, zero, zero, cmath.exp(1j * theta)])}
    for a in range(16):
        for b in range(16):
            if a == b:
                continue
            rest = _balanced_kron([p0 if q == a else i1 for q in range(16)])
            for kind, u in us.items():
                acting = _balanced_kron([p1 if q == a else u if q == b
                                         else i1 for q in range(16)])
                gate = (kind, a, b) if kind == "CNOT" else (kind, theta, a, b)
                assert build_gate(f, gate, 16) is add(rest, acting), gate


def test_gate_block_memo_gives_the_gates_of_a_fresh_forest():
    """Every one- and two-qubit gate on 16 qubits, built in one forest in
    a shuffled order so that gate_blocks serves blocks made for other
    gates and offsets, dumps like the same gate built in a fresh forest.
    Dropping the memo tables halfway keeps every handle."""
    theta = math.pi / 3
    gates = [(kind, q) for kind in ("H", "X") for q in range(16)]
    gates += [("PHASE", theta, q) for q in range(16)]
    pairs = [(a, b) for a in range(16) for b in range(16) if a != b]
    gates += [("CNOT", a, b) for a, b in pairs]
    gates += [("CP", theta, a, b) for a, b in pairs]
    random.Random(12).shuffle(gates)
    f = quantum_forest()
    built = {}
    for i, gate in enumerate(gates):
        if i == len(gates) // 2:
            assert f.stats()["caches"]["gate_blocks"] > 0
            f.clear_caches()
            for earlier, handle in built.items():
                assert build_gate(f, earlier, 16) is handle, earlier
        built[gate] = build_gate(f, gate, 16)
        alone = build_gate(quantum_forest(), gate, 16)
        assert dump_diagram(built[gate]) == dump_diagram(alone), gate


def test_gate_by_gate_replay_dumps_like_run_circuit():
    """The benchmark's traced circuits run replays each circuit through
    basis_state, build_gate and apply_matrix_to_vector on a fresh forest
    and requires the dump of run_circuit's state, byte for byte."""
    rng = oracle.seeded("replay")
    bv, dj = (format(rng.getrandbits(31) | 1, "031b") for _ in range(2))
    for circuit in (ghz(64), bernstein_vazirani(31, bv),
                    deutsch_jozsa(31, dj), qft(8, rng.randrange(256))):
        state = run_circuit(circuit, quantum_forest()).diagram
        forest = quantum_forest()
        padded = 1 << (circuit.n - 1).bit_length()
        vector = basis_state(forest, (0,) * padded)
        for gate in circuit.gates:
            vector = apply_matrix_to_vector(
                build_gate(forest, gate, circuit.n), vector)
        assert dump_diagram(vector) == dump_diagram(state), circuit.n


def test_build_gate_rejects_qubits_outside_the_register():
    f = quantum_forest()
    for gate, n in ((("H", 5), 2), (("X", 3), 3), (("PHASE", 0.5, -1), 2),
                    (("CNOT", 5, 0), 2), (("CNOT", 5, 6), 2),
                    (("CNOT", 0, 2), 2), (("CP", 0.5, 0, 4), 4)):
        try:
            build_gate(f, gate, n)
            assert False, gate
        except ValueError as e:
            assert "out of range" in str(e), (gate, e)


def test_gates_are_unitary():
    f = quantum_forest()
    for gate in (("H", 0), ("CNOT", 1, 0), ("CP", 0.7, 0, 1),
                 ("PHASE", 1.1, 1)):
        m = _deinterleave(unfold(build_gate(f, gate, 2)), 2)
        assert np.allclose(m @ m.conj().T, np.eye(4), atol=1e-9), gate


def test_control_equals_target_rejected():
    f = quantum_forest()
    try:
        build_gate(f, ("CNOT", 1, 1), 2)
        assert False
    except ValueError:
        pass


def test_circuits_match_dense_simulator():
    f = quantum_forest()
    circuits = (ghz(2), ghz(3), ghz(5),
                bernstein_vazirani(3, "101"), bernstein_vazirani(7, "1100101"),
                deutsch_jozsa(3, "110"), deutsch_jozsa(3, None),
                qft(3, 5), qft(2, 1), qft(4, 11))
    for circuit in circuits:
        state = run_circuit(circuit, f)
        got = np.array(state_vector(state))
        want = oracle.dense_run(circuit)
        assert np.allclose(got, want, atol=1e-9), circuit
        assert abs(float(np.sum(np.abs(got) ** 2)) - 1) < 1e-6
        assert validate(state.diagram) == []


def test_ghz_amplitudes():
    s = run_circuit(ghz(2))
    amps = state_vector(s)
    r = 2 ** -0.5
    assert abs(amps[0] - r) < 1e-12 and abs(amps[3] - r) < 1e-12
    assert abs(amps[1]) < 1e-12 and abs(amps[2]) < 1e-12
    assert abs(amplitude(s, [1, 1]) - r) < 1e-12


def test_qft_phases():
    state = run_circuit(qft(3, 5))
    amps = state_vector(state)
    for k in range(8):
        want = cmath.exp(2j * math.pi * 5 * k / 8) / math.sqrt(8)
        assert abs(amps[k] - want) < 1e-9


def test_basis_state_and_measure():
    f = quantum_forest()
    d = basis_state(f, (1, 0, 1, 0))
    assert abs(amplitude(run_circuit(Circuit(3).x(0).x(2), f), [1, 0, 1])
               - 1) < 1e-12
    assert unfold(d) is not None  # well formed at the padded width
    counts = measure(run_circuit(Circuit(3).x(0).x(2), f), 50, seed=3)
    assert counts == {"101": 50}


def test_measure_ghz_support_and_balance():
    state = run_circuit(ghz(2))
    counts = measure(state, 10000, seed=13)
    assert set(counts) == {"00", "11"}
    p = oracle.chi_square_p(counts, {"00": 0.5, "11": 0.5}, 10000)
    assert p > 0.001, counts


def test_bv_recovers_hidden_string():
    state = run_circuit(bernstein_vazirani(3, "101"))
    counts = measure(state, 200, seed=5)
    assert {k[:3] for k in counts} == {"101"}


def test_bv_wide_enough_that_layers_dip_below_key_resolution():
    """After the first H layer on 100 qubits the global factor is
    2^-50, which the float rounding key treats as zero. The circuit
    must still come back to a +-1/sqrt(2) state."""
    hidden = ("10" * 50)[:99] + "1"
    state = run_circuit(bernstein_vazirani(100, hidden))
    assert abs(abs(state.diagram.factor) - 2 ** -0.5) < 1e-9
    outcome = next(iter(measure(state, 1, seed=9)))
    assert outcome[:100] == hidden


def test_ghz_grows_linearly():
    f = quantum_forest()
    sizes = [size(run_circuit(ghz(n), f).diagram).total
             for n in (16, 256, 4096)]
    assert sizes[1] - sizes[0] == sizes[2] - sizes[1], sizes


def test_grover_peaks_at_hidden():
    for n, hidden in ((2, "10"), (3, "101"), (4, "0110"), (8, "10110010"),
                      (12, "011010011100")):
        state, iterations = grover(n, hidden)
        probs = [abs(a) ** 2 for a in state_vector(state)]
        peak = max(range(len(probs)), key=probs.__getitem__)
        assert peak == int(hidden, 2), (hidden, peak)
        assert probs[peak] > 0.5, (hidden, probs[peak])
        assert iterations >= 1


def test_parse_circuit():
    c = parse_circuit("""
# build a bell pair
H 0
CNOT 0 1
""")
    assert c.n == 2
    assert c.gates == [("H", 0), ("CNOT", 0, 1)]
    c2 = parse_circuit("CP 0.785398 0 2\nX 1\n")
    assert c2.n == 3 and c2.gates[0][0] == "CP"
    try:
        parse_circuit("H x")
        assert False
    except ValueError as e:
        assert "line 1" in str(e)


def test_basis_state_is_the_folded_ket():
    f = quantum_forest()
    for p in (1, 2, 4):
        for x in range(1 << p):
            bits = [(x >> (p - 1 - j)) & 1 for j in range(p)]
            ket = [0j] * (1 << p)
            ket[x] = 1 + 0j
            assert basis_state(f, bits) is fold(f, ket), bits
    try:
        basis_state(f, (0, 2))
        assert False, "a bit outside 0/1 must be rejected"
    except ValueError:
        pass


def test_measure_ghz_1024_is_balanced():
    # Measure-view totals used to include a 2^(column bits) factor that
    # overflowed to inf here, so every shot gave the all-ones label.
    n = 1024
    counts = measure(run_circuit(ghz(n)), 64, seed=3)
    p = oracle.chi_square_p(counts, {"0" * n: 0.5, "1" * n: 0.5}, 64)
    assert p > 0.001, {k[:4]: c for k, c in counts.items()}


def test_negative_shot_count_is_rejected():
    try:
        measure(run_circuit(ghz(2)), -3, seed=0)
        assert False, "a negative shot count must raise"
    except ValueError:
        pass


@pytest.mark.parametrize("make", [
    lambda: Circuit(2.5),
    lambda: Circuit(True),
    lambda: parse_circuit("H 0\n", n=3.5),
    lambda: measure(run_circuit(ghz(2)), 2.0, seed=1),
], ids=["circuit-float", "circuit-bool", "parse-float-count",
        "measure-float-shots"])
def test_non_integer_counts_are_rejected(make):
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_towers_live_outside_the_memo_caches():
    """The towers and the companion forest are not memo tables, so
    clear_caches keeps them, and rebuilding a tower interns nothing."""
    f = quantum_forest()
    run_circuit(ghz(256), f)
    run_circuit(qft(32, 12345), f)
    matrix_multiply(hadamard_family(f, 2), hadamard_family(f, 2))
    measure(run_circuit(ghz(8), f), 4, seed=1)
    for name in ("walsh_proto", "identity_proto", "not_proto", "zero_ket",
                 "gate_factors"):
        assert name not in f.caches
    for table in f.caches.values():
        assert not any(isinstance(v, Forest) for v in table.values())
    towers = dict(f._tower_table)
    assert {"zero", "walsh", "identity", "not", "zero_ket", "projector0",
            "projector1"} <= {name for name, _ in towers}
    # Clearing frees the groupings only the memo tables held, so the
    # count to keep is the one right after it.
    f.clear_caches()
    groupings = f.stats()["groupings"]
    rebuild = {
        "zero": f.zero_proto, "one": f.one_proto,
        "walsh": lambda level: walsh_family(f, level).head,
        "identity": lambda level: identity_proto(f, level),
        "not": lambda level: not_matrix(f, level).head,
        "zero_ket": lambda level: basis_state(f, [0] * (1 << level)).head,
        "projector0": lambda level: fold(f, [1, 0, 0, 0]).head,
        "projector1": lambda level: fold(f, [0, 0, 0, 1]).head,
    }
    for (name, level), head in towers.items():
        assert rebuild[name](level) is head, (name, level)
        assert head.canonical
    assert f.stats()["groupings"] == groupings


def test_gate_with_an_extra_qubit_is_rejected():
    with pytest.raises(ValueError, match="H takes 0 angle"):
        build_gate(quantum_forest(), ("H", 0, 1), 4)


def test_gate_with_a_missing_qubit_is_rejected():
    with pytest.raises(ValueError, match="CNOT takes 0 angle"):
        build_gate(quantum_forest(), ("CNOT", 0), 4)


def test_phase_without_its_qubit_is_rejected():
    with pytest.raises(ValueError, match="PHASE takes 1 angle"):
        build_gate(quantum_forest(), ("PHASE", 0.5), 4)


def test_non_integer_qubits_are_rejected():
    f = quantum_forest()
    for gate in (("H", 1.5), ("H", True), ("CNOT", 0, False)):
        with pytest.raises(ValueError, match="must be integers"):
            build_gate(f, gate, 4)
    with pytest.raises(ValueError, match="must be integers"):
        Circuit(4).h(1.5)
    # numpy integers are integers, and are stored as plain ints.
    c = Circuit(4).cnot(np.int64(1), np.uint8(3))
    assert c.gates == [("CNOT", 1, 3)] and type(c.gates[0][1]) is int
    assert build_gate(f, ("H", np.int32(2)), 4) is build_gate(f, ("H", 2), 4)


def test_non_finite_angles_are_rejected():
    with pytest.raises(ValueError, match=r"line 2: angles \(nan,\) must be finite"):
        parse_circuit("H 0\nPHASE nan 0\n")
    f = quantum_forest()
    for theta in (math.inf, -math.inf, math.nan, "0.5", 1j):
        with pytest.raises(ValueError, match="must be finite numbers"):
            build_gate(f, ("CP", theta, 0, 1), 2)
    with pytest.raises(ValueError, match="must be finite numbers"):
        Circuit(2).phase(math.nan, 0)


def test_parse_errors_name_the_line():
    cases = (("H 0\nCNOT 1 1\n", None, "line 2: CNOT control and target"),
             ("X 1\n\nH 7\n", 4, "line 3: qubit 7 out of range"),
             ("H -1\n", None, "line 1: qubit -1 out of range"),
             ("# c\nH 0 1\n", None, "line 2: H takes 0 angle"),
             ("CP 0.5 1\n", None, "line 1: CP takes 1 angle"),
             ("SWAP 0 1\n", None, "line 1: cannot parse"))
    for text, n, message in cases:
        with pytest.raises(ValueError, match=message):
            parse_circuit(text, n)
    with pytest.raises(ValueError, match="empty circuit"):
        parse_circuit("# nothing\n")


def test_controlled_gate_is_its_block_among_identities():
    # The block of CNOT(5, 6) on 16 qubits spans qubits 4-7; the gate is
    # (I_4 (x) block) (x) I_8, and the same block is CNOT(1, 2) on 4.
    f = quantum_forest()
    block = build_gate(f, ("CNOT", 1, 2), 4)
    want = kronecker(kronecker(identity_matrix(f, 3), block),
                     identity_matrix(f, 4))
    assert build_gate(f, ("CNOT", 5, 6), 16) is want



def _class_tower_cases():
    """(width, a, b) with a in the first half of the block and b in the
    second: every pair up to width 16, and a seeded 24 at width 32."""
    cases = [(w, a, b) for w in (2, 4, 8, 16)
             for a in range(w // 2) for b in range(w // 2, w)]
    rng = random.Random(22)
    return cases + [(32, rng.randrange(16), rng.randrange(16, 32))
                    for _ in range(24)]


@pytest.mark.parametrize("instance", ["rational", "float", "complex"])
def test_controlled_blocks_are_the_projection_sum(instance):
    """A controlled gate whose qubits lie in different halves of the
    register is one block, built as a grouping over a class tower; it
    is the handle of |0><0|_a (x) I + |1><1|_a (x) U_b, CNOT in both
    orders, CP on complex in both orders (with CP(a, b) is CP(b, a)),
    and CP(0) is the identity.  validate is clean on each."""
    f = Forest(field_by_name(instance))
    one, zero = f.field.one, f.field.zero
    p0 = fold(f, [one, zero, zero, zero])
    p1 = fold(f, [zero, zero, zero, one])
    i1 = identity_matrix(f, 1)
    us = {"CNOT": not_matrix(f, 1)}
    if instance == "complex":
        theta = 2 * math.pi / 7
        us["CP"] = fold(f, [one, zero, zero, cmath.exp(1j * theta)])
    for width, a, b in _class_tower_cases():
        for c, t in ((a, b), (b, a)):
            rest = _balanced_kron([p0 if q == c else i1
                                   for q in range(width)])
            for kind, u in us.items():
                acting = _balanced_kron([p1 if q == c else u if q == t
                                         else i1 for q in range(width)])
                gate = (kind, c, t) if kind == "CNOT" else (kind, theta, c, t)
                block = build_gate(f, gate, width)
                assert block is add(rest, acting), (gate, width)
                assert validate(block) == [], (gate, width)
        if instance == "complex":
            assert (build_gate(f, ("CP", theta, a, b), width)
                    is build_gate(f, ("CP", theta, b, a), width))
            assert (build_gate(f, ("CP", 0.0, b, a), width)
                    is identity_matrix(f, width.bit_length()))


def test_circuit_states_are_canonical_and_only_memo_tables_hold_more():
    """Controlled blocks are built as canonical groupings, and a run's
    state reaches only canonical groupings.  The row product interns
    non-canonical cross products, as pair_product does, which only the
    memo tables keep: once the tables drop, every live grouping is
    canonical.  GHZ and BV form no pointwise sums at all."""
    for circuit, sums in ((ghz(256), False),
                          (bernstein_vazirani(63, "10" * 31 + "1"), False),
                          (qft(32, 12345), True)):
        f = quantum_forest()
        state = run_circuit(circuit, f).diagram
        assert all(g.canonical for g in reachable_groupings(state.head)), \
            circuit
        assert ("weighted_pair_product" in f.stats()["caches"]) == sums, \
            circuit
        f.clear_caches()
        gc.collect()
        stats = f.stats()
        assert stats["groupings"] == stats["canonical_ids"], circuit


def _seeded_state(f, n, seed):
    """A state on n qubits: an H layer, then 40 seeded X, PHASE, CNOT
    and CP gates."""
    rng = random.Random(seed)
    c = Circuit(n)
    for q in range(n):
        c.h(q)
    for _ in range(40):
        a, b = rng.sample(range(n), 2)
        theta = rng.choice((math.pi / 2, math.pi / 3, 2 * math.pi / 7))
        kind, *args = rng.choice((("X", a), ("PHASE", theta, a),
                                  ("CNOT", a, b), ("CP", theta, a, b)))
        getattr(c, kind.lower())(*args)
    return run_circuit(c, f).diagram


def _row_and_symbolic(f, gate, n, states):
    """Each state times the gate through apply_matrix_to_vector and
    through the symbolic product called directly, which must give the
    identical handle; whether the row product applied."""
    m = build_gate(f, gate, n)
    for s in states:
        assert apply_matrix_to_vector(m, s) is _symbolic_product(f, m, s), gate
    return _monomial(f, m.head)


def test_row_product_gives_the_symbolic_handles():
    """Every table gate on 16 qubits, and seeded control-first and
    target-first CNOT and CP at every block width on 64: H and
    target-first CNOT take the symbolic path, the rest the row product,
    and both give the same handle."""
    theta = math.pi / 3
    f = quantum_forest()
    states = [_seeded_state(f, 16, 2)]
    for q in range(16):
        assert not _row_and_symbolic(f, ("H", q), 16, states)
        assert _row_and_symbolic(f, ("X", q), 16, states)
        assert _row_and_symbolic(f, ("PHASE", theta, q), 16, states)
    for a in range(16):
        for b in range(16):
            if a != b:
                assert (_row_and_symbolic(f, ("CNOT", a, b), 16, states)
                        == (a < b)), (a, b)
                assert _row_and_symbolic(f, ("CP", theta, a, b), 16, states)
    rng = random.Random(64)
    states = [_seeded_state(f, 64, 3)]
    for width in (2, 4, 8, 16, 32, 64):
        for _ in range(2):
            base = rng.randrange(0, 64, width)
            a = base + rng.randrange(width // 2)
            b = base + width // 2 + rng.randrange(width // 2)
            for c, t in ((a, b), (b, a)):
                assert (_row_and_symbolic(f, ("CNOT", c, t), 64, states)
                        == (c < t)), (c, t)
                assert _row_and_symbolic(f, ("CP", theta, c, t), 64, states)


@pytest.mark.parametrize("basis", [True, 1.0, "1"])
def test_qft_basis_must_be_an_integer(basis):
    with pytest.raises(ValueError, match="basis label .* must be an integer"):
        qft(3, basis)


@pytest.mark.parametrize("instance", ["rational", "float"])
def test_phases_need_the_complex_instance(instance):
    f = Forest(field_by_name(instance))
    message = f"complex instance, not {f.field.name}"
    for gate in (("PHASE", 0.5, 1), ("CP", 0.5, 0, 1)):
        with pytest.raises(ValueError, match=message):
            build_gate(f, gate, 2)
    with pytest.raises(ValueError, match=message):
        run_circuit(Circuit(2).x(0).cp(math.pi / 2, 0, 1), f)


# Float states past about 68 qubits: amplitudes of 2^-35 and below key
# as 0 under the float key's 10 decimal places, and the results below,
# though validate finds nothing wrong, are off by their whole size.


def _plus_sum(n):
    """add of H^n|0> and H^n X(0)|0>, run in one forest: the state
    sqrt(2)|0>|+>^(n-1)."""
    forest = quantum_forest()
    states = []
    for flip in (False, True):
        circuit = Circuit(n)
        if flip:
            circuit.x(0)
        for q in range(n):
            circuit.h(q)
        states.append(run_circuit(circuit, forest).diagram)
    return QuantumState(n, add(*states))


def _assert_amplitudes(state, want, scale):
    """``state`` is valid and has amplitude ``want[bits]`` at each
    ``bits``, to 1e-9 of ``scale``."""
    assert validate(state.diagram) == []
    for bits, value in want.items():
        got = amplitude(state, bits)
        assert abs(got - value) <= 1e-9 * scale, (bits, got, value)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the 80-qubit sum "
                   "is the zero diagram, where 2^-39 is exact at |0...0>")
def test_the_sum_of_two_80_qubit_states_is_not_zero():
    exact = 2.0 ** -39
    _assert_amplitudes(_plus_sum(80), {"0" * 80: exact, "1" + "0" * 79: 0},
                       exact)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the 70-qubit sum "
                   "reads 5.82e-11 at |10...0>, where 0 is exact")
def test_the_sum_of_two_70_qubit_states_cancels_where_exact():
    exact = 2.0 ** -34
    _assert_amplitudes(_plus_sum(70), {"0" * 70: exact, "1" + "0" * 69: 0},
                       exact)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: Z X Z X on |+>^72 "
                   "gives +1.4552e-11 at |0...0>, where -2^-36 is exact")
def test_two_phase_flips_negate_a_72_qubit_state():
    circuit = Circuit(72)
    for q in range(72):
        circuit.h(q)
    circuit.phase(math.pi, 0).x(0).phase(math.pi, 0).x(0)
    exact = -2.0 ** -36
    _assert_amplitudes(run_circuit(circuit), {"0" * 72: exact}, -exact)
