"""Quantum states, gates, and stock circuits over the complex instance.

Qubit counts are padded up to a power of two p; padding qubits stay |0>
and are stripped again by measurement.  A state is a level-log2(p)
vector over one bit per qubit, and apply_matrix_to_vector runs each
gate, a level log2(p)+1 matrix, against it.  Basis states are Kronecker
trees like the gates below, over cached |0...0> towers.

Qubit 0 is the most significant bit of a basis label: |q0 q1 ... >.

One-qubit gates are embedded with balanced Kronecker trees over cached
identities, so building a gate on P qubits touches O(log P) fresh
groupings.  Controlled gates use the projection decomposition

    C-U(a, b) = |0><0|_a (x) I  +  |1><1|_a (x) U_b

taken only on the smallest balanced block of the register that holds
both a and b: the two terms are assembled over that block and added
there, and the sum is Kronecker'd with cached identities up to the
full width.  Since (A (x) I) + (B (x) I) = (A + B) (x) I, canonicity
gives the same handle as the sum over the whole register.  The |0><0|
and |1><1| factors are folded once per forest and kept in its
``gate_factors`` table.

A block of either kind is a function of its width, of the positions of
its special qubits counted from the block's first qubit, and of their
one-qubit factors, but not of where the block sits in the register.
The forest's ``gate_blocks`` table keeps every block wider than one
qubit under that offset-free key, so the block a CNOT needs at qubits
(40, 41) is the one made for (8, 9), and each distinct block is built
once per forest rather than once per recursion step.  The factors
enter the key as the diagrams themselves.  Diagrams hash and compare by
identity, and each factor is interned, so equal factors give equal
keys; the key holds a reference, so an identity cannot be freed and
reused while the entry lives.  A rebuild at any offset would run the
same operations on the same handles in the same order, so a stored
block is the handle, with the same bytes, that the rebuild would
intern.
"""

import cmath
import math

from .core import Diagram, Forest, evaluate
from .construct import (_identity_step, _tower, fold, hadamard_family,
                        identity_matrix, not_matrix, scalar_multiply)
from .matrix import apply_matrix_to_vector, kronecker, matrix_multiply
from .pointwise import add, subtract
from .sampling import SampleContext, measure_view, sampler
from .semifield import complex_field

__all__ = [
    "Circuit",
    "QuantumState",
    "amplitude",
    "basis_state",
    "bernstein_vazirani",
    "build_gate",
    "deutsch_jozsa",
    "ghz",
    "grover",
    "measure",
    "parse_circuit",
    "qft",
    "quantum_forest",
    "run_circuit",
    "state_vector",
]


def quantum_forest() -> Forest:
    """A fresh forest over the complex instance."""
    return Forest(complex_field())


def _padded(n: int) -> int:
    if n < 1:
        raise ValueError("qubit count must be positive")
    p = 1
    while p < n:
        p <<= 1
    return p


def _level(p: int) -> int:
    return p.bit_length()  # p is a power of two: level = log2(p) + 1


def _identity(forest, width):
    return identity_matrix(forest, _level(width))


def _zero_ket(forest, width):
    """|0...0> on ``width`` qubits, a power of two."""
    field = forest.field
    head = _tower(forest, "zero_ket", _level(width) - 1, ("one", "zero"),
                  _identity_step)
    return forest.diagram(field.one, head, (field.one, field.zero))


class QuantumState:
    """An n-qubit state plus the padded diagram that carries it."""

    __slots__ = ("n", "padded", "diagram")

    def __init__(self, n: int, diagram: Diagram):
        self.n = n
        self.padded = _padded(n)
        self.diagram = diagram

    def __repr__(self):
        return f"<QuantumState {self.n} qubits, level {self.diagram.level}>"


class Circuit:
    """A gate list over n qubits; build with h/x/cnot/cp or parse_circuit."""

    def __init__(self, n: int, hidden: str | None = None):
        if n < 1:
            raise ValueError("qubit count must be positive")
        self.n = n
        self.hidden = hidden
        self.gates = []

    def _check(self, *qubits):
        for q in qubits:
            if not 0 <= q < self.n:
                raise ValueError(f"qubit {q} out of range for {self.n} qubits")

    def h(self, q: int):
        self._check(q)
        self.gates.append(("H", q))
        return self

    def x(self, q: int):
        self._check(q)
        self.gates.append(("X", q))
        return self

    def phase(self, theta: float, q: int):
        self._check(q)
        self.gates.append(("PHASE", theta, q))
        return self

    def cnot(self, control: int, target: int):
        self._check(control, target)
        if control == target:
            raise ValueError("CNOT control and target must differ")
        self.gates.append(("CNOT", control, target))
        return self

    def cp(self, theta: float, control: int, target: int):
        self._check(control, target)
        if control == target:
            raise ValueError("CP control and target must differ")
        self.gates.append(("CP", theta, control, target))
        return self

    def __repr__(self):
        return f"<Circuit {self.n} qubits, {len(self.gates)} gates>"


def parse_circuit(text: str, n: int | None = None) -> Circuit:
    """Circuit from one gate per line.

    Gates: H q | X q | PHASE theta q | CNOT c t | CP theta c t.

    Blank lines and lines starting with # are skipped.  The qubit count
    is inferred from the largest index unless given.
    """
    parsed = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        op = parts[0].upper()
        try:
            if op in ("H", "X") and len(parts) == 2:
                q = int(parts[1])
                parsed.append((op, q))
                top = max(top, q)
            elif op == "PHASE" and len(parts) == 3:
                theta, q = float(parts[1]), int(parts[2])
                parsed.append((op, theta, q))
                top = max(top, q)
            elif op == "CNOT" and len(parts) == 3:
                a, b = int(parts[1]), int(parts[2])
                parsed.append((op, a, b))
                top = max(top, a, b)
            elif op == "CP" and len(parts) == 4:
                theta, a, b = float(parts[1]), int(parts[2]), int(parts[3])
                parsed.append((op, theta, a, b))
                top = max(top, a, b)
            else:
                raise ValueError("bad shape")
        except ValueError:
            raise ValueError(f"line {lineno}: cannot parse {line!r}") from None
    if top < 0 and n is None:
        raise ValueError("empty circuit and no qubit count given")
    count = (top + 1) if n is None else n
    circuit = Circuit(count)
    for gate in parsed:
        if gate[0] == "H":
            circuit.h(gate[1])
        elif gate[0] == "X":
            circuit.x(gate[1])
        elif gate[0] == "PHASE":
            circuit.phase(gate[1], gate[2])
        elif gate[0] == "CNOT":
            circuit.cnot(gate[1], gate[2])
        else:
            circuit.cp(gate[1], gate[2], gate[3])
    return circuit


# -- gate construction -----------------------------------------------------


def _single(forest, kind, theta=None):
    field = forest.field
    if kind == "H":
        return hadamard_family(forest, 1)
    if kind == "X":
        return not_matrix(forest, 1)
    if kind == "PHASE":
        return fold(forest, [field.one, field.zero, field.zero,
                             cmath.exp(1j * theta)])
    raise ValueError(f"unknown single-qubit gate {kind!r}")


def _projector(forest, bit):
    """The one-qubit projector |bit><bit|, folded once per forest."""
    factors = forest.cache("gate_factors")
    hit = factors.get(bit)
    if hit is None:
        field = forest.field
        cells = [field.zero] * 4
        cells[3 * bit] = field.one
        hit = factors[bit] = fold(forest, cells)
    return hit


def _kron_segment(forest, width, specials, default=_identity):
    """Kronecker product of per-qubit factors over ``width`` qubits.

    ``specials`` is a tuple of (qubit, one-qubit factor) pairs in
    ascending qubit order, counted from the first qubit of the segment;
    every other qubit takes ``default``'s factor, and all-default
    segments come from ``default(forest, width)`` without recursing.

    The product depends only on the width, the relative positions, the
    factors and ``default``, never on where the segment sits in the
    register, so wider segments are kept in the forest's
    ``gate_blocks`` table under exactly that key.  A segment repeated
    at another offset, or in another gate, returns the stored handle.
    """
    if not specials:
        return default(forest, width)
    if width == 1:
        return specials[0][1]
    blocks = forest.cache("gate_blocks")
    key = (width, default, specials)
    hit = blocks.get(key)
    if hit is None:
        half = width // 2
        left = tuple(s for s in specials if s[0] < half)
        right = tuple((q - half, u) for q, u in specials if q >= half)
        hit = blocks[key] = kronecker(
            _kron_segment(forest, half, left, default),
            _kron_segment(forest, half, right, default))
    return hit


def _controlled(forest, width, a, b, u):
    """C-U with control a and target b (a != b) over ``width`` qubits.

    The projection sum is taken on the smallest balanced block that
    holds both qubits; above it the gate is that block (x) identity.
    Qubits count from the first of the block, so like _kron_segment
    the result is kept in ``gate_blocks`` under (width, a, b, u).
    """
    blocks = forest.cache("gate_blocks")
    key = (width, a, b, u)
    hit = blocks.get(key)
    if hit is None:
        half = width // 2
        if a < half and b < half:
            hit = kronecker(_controlled(forest, half, a, b, u),
                            _identity(forest, half))
        elif a >= half and b >= half:
            hit = kronecker(_identity(forest, half),
                            _controlled(forest, half, a - half, b - half, u))
        else:
            acting = tuple(sorted(((a, _projector(forest, 1)), (b, u))))
            hit = add(_kron_segment(forest, width,
                                    ((a, _projector(forest, 0)),)),
                      _kron_segment(forest, width, acting))
        blocks[key] = hit
    return hit


def build_gate(forest: Forest, gate, n: int) -> Diagram:
    """The full n-qubit (padded) matrix for one gate description.

    ``gate`` is a tuple as stored by Circuit: ("H", q), ("X", q),
    ("PHASE", theta, q), ("CNOT", a, b), or ("CP", theta, a, b).
    Raises ValueError for an unknown kind or a qubit outside [0, n).
    """
    p = _padded(n)
    kind = gate[0]
    if kind in ("H", "X", "CNOT"):
        theta, qubits = None, gate[1:]
    elif kind in ("PHASE", "CP"):
        theta, qubits = gate[1], gate[2:]
    else:
        raise ValueError(f"unknown gate {gate!r}")
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n} qubits")
    if kind in ("H", "X", "PHASE"):
        return _kron_segment(forest, p,
                             ((qubits[0], _single(forest, kind, theta)),))
    a, b = qubits
    if a == b:
        raise ValueError("control and target must differ")
    u = _single(forest, "X" if kind == "CNOT" else "PHASE", theta)
    return _controlled(forest, p, a, b, u)


# -- states -----------------------------------------------------------------


def basis_state(forest: Forest, bits) -> Diagram:
    """Level-log2(p) vector diagram of the basis state |bits> on p qubits.

    ``bits`` must already have power-of-two length p; use run_circuit or
    QuantumState for logical qubit counts.
    """
    bits = tuple(int(b) for b in bits)
    p = len(bits)
    if p & (p - 1) or p < 1:
        raise ValueError("basis_state needs a power-of-two qubit count")
    if set(bits) - {0, 1}:
        raise ValueError("basis_state bits must be 0 or 1")
    ket1 = fold(forest, [forest.field.zero, forest.field.one])
    return _kron_segment(forest, p,
                         tuple((q, ket1) for q, b in enumerate(bits) if b),
                         _zero_ket)


def run_circuit(circuit: Circuit, forest: Forest | None = None) -> QuantumState:
    """Left fold of gate application starting from |0...0>."""
    if forest is None:
        forest = quantum_forest()
    state = _zero_ket(forest, _padded(circuit.n))
    for gate in circuit.gates:
        matrix = build_gate(forest, gate, circuit.n)
        state = apply_matrix_to_vector(matrix, state)
    return QuantumState(circuit.n, state)


def amplitude(state: QuantumState, bits) -> complex:
    """Amplitude of |bits> (logical, unpadded)."""
    bits = tuple(int(b) for b in bits)
    if len(bits) != state.n:
        raise ValueError(f"expected {state.n} bits")
    return evaluate(state.diagram, bits + (0,) * (state.padded - state.n))


def state_vector(state: QuantumState):
    """All 2^n amplitudes in basis-label order; desk scale only."""
    if state.n > 16:
        raise ValueError("state_vector is meant for small qubit counts")
    out = []
    for x in range(1 << state.n):
        bits = [(x >> (state.n - 1 - j)) & 1 for j in range(state.n)]
        out.append(amplitude(state, bits))
    return out


def measure(state: QuantumState, shots: int, seed: int):
    """Histogram of basis labels sampled from |amplitude|^2.

    Padding qubits are stripped from each draw; the result maps
    n-character bit strings to counts.  Negative ``shots`` raise.
    """
    if shots < 0:
        raise ValueError(f"shot count {shots} is negative")
    view = measure_view(state.diagram)
    ctx = SampleContext(seed)
    counts = {}
    if not shots:
        # Zero shots draw nothing, so a zero view is no error here.
        return counts
    draw = sampler(view)
    n = state.n
    for _ in range(shots):
        label = draw(ctx)[:n]
        counts[label] = counts.get(label, 0) + 1
    return counts


# -- stock circuits ----------------------------------------------------------


def ghz(n: int) -> Circuit:
    """H on qubit 0 plus a CNOT chain: (|0...0> + |1...1>)/sqrt(2)."""
    c = Circuit(n)
    c.h(0)
    for q in range(n - 1):
        c.cnot(q, q + 1)
    return c


def bernstein_vazirani(n: int, hidden: str) -> Circuit:
    """BV over n input qubits and one ancilla; measuring gives hidden."""
    if len(hidden) != n or set(hidden) - {"0", "1"}:
        raise ValueError("hidden string must be n bits of 0/1")
    c = Circuit(n + 1, hidden=hidden)
    c.x(n)
    for q in range(n + 1):
        c.h(q)
    for q, bit in enumerate(hidden):
        if bit == "1":
            c.cnot(q, n)
    for q in range(n):
        c.h(q)
    return c


def deutsch_jozsa(n: int, hidden: str | None) -> Circuit:
    """DJ with a balanced oracle from a nonzero hidden string.

    ``hidden=None`` builds the constant-zero oracle; measuring the
    input register then gives all zeros, versus never all zeros for a
    balanced oracle.
    """
    if hidden is not None and (len(hidden) != n or set(hidden) - {"0", "1"}
                               or hidden == "0" * n):
        raise ValueError("hidden string must be n bits and nonzero")
    c = Circuit(n + 1, hidden=hidden)
    c.x(n)
    for q in range(n + 1):
        c.h(q)
    if hidden is not None:
        for q, bit in enumerate(hidden):
            if bit == "1":
                c.cnot(q, n)
    for q in range(n):
        c.h(q)
    return c


def qft(n: int, basis: int = 0) -> Circuit:
    """QFT circuit; run on |basis> it yields the Fourier-transformed state.

    The basis state is prepared with X gates, then the textbook ladder
    of H and controlled phases runs, and final swaps (three CNOTs each)
    restore ascending bit order.
    """
    if not 0 <= basis < (1 << n):
        raise ValueError("basis label out of range")
    c = Circuit(n)
    for q in range(n):
        if (basis >> (n - 1 - q)) & 1:
            c.x(q)
    for q in range(n):
        c.h(q)
        for k in range(q + 1, n):
            c.cp(math.pi / (1 << (k - q)), k, q)
    for q in range(n // 2):
        other = n - 1 - q
        c.cnot(q, other).cnot(other, q).cnot(q, other)
    return c


def grover(n: int, hidden: str, forest: Forest | None = None):
    """Grover search for one marked label; returns (state, iterations).

    Both operators are built structurally over the padded register,
    acting as the identity on the padding qubits:

        oracle    = I - 2 (|w><w| (x) I_pad)
        diffusion = H^n (2 (|0..0><0..0| (x) I_pad) - I) H^n

    so the diagrams stay small and n is limited only by run time.
    """
    if len(hidden) != n or set(hidden) - {"0", "1"}:
        raise ValueError("hidden string must be n bits of 0/1")
    if forest is None:
        forest = quantum_forest()
    field = forest.field
    p = _padded(n)
    two = field.add(field.one, field.one)
    identity = identity_matrix(forest, _level(p))

    def reflect_about(bits):
        """I - 2 (|bits><bits| (x) I_pad)."""
        projector = _kron_segment(forest, p, tuple(
            (q, _projector(forest, int(bit))) for q, bit in enumerate(bits)))
        return subtract(identity, scalar_multiply(two, projector))

    oracle = reflect_about(hidden)
    hadamards = _kron_segment(forest, p,
                              tuple((q, _single(forest, "H"))
                                    for q in range(n)))
    flip = scalar_multiply(field.minus_one, reflect_about("0" * n))
    diffusion = matrix_multiply(hadamards, matrix_multiply(flip, hadamards))
    uniform = Circuit(n)
    for q in range(n):
        uniform.h(q)
    state = run_circuit(uniform, forest).diagram
    iterations = max(1, math.floor(math.pi / 4 * math.sqrt(1 << n)))
    for _ in range(iterations):
        state = apply_matrix_to_vector(oracle, state)
        state = apply_matrix_to_vector(diffusion, state)
    return QuantumState(n, state), iterations
