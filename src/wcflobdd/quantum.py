"""Quantum states, gates, and stock circuits over the complex instance.

Qubit counts are padded up to a power of two p; padding qubits stay |0>
and are stripped again by measurement.  A state is a level-log2(p)
vector over one bit per qubit, and apply_matrix_to_vector runs each
gate, a level log2(p)+1 matrix, against it.  Qubit 0 is the most
significant bit of a basis label: |q0 q1 ... >.

Every gate is one block at an offset.  One table gives each gate kind
its angle count, its qubit count and the one-qubit factor U it applies,
and one check reads it for Circuit, parse_circuit and build_gate.  A
one-qubit gate's block is U.  A controlled gate's block is the smallest
aligned block holding control a and target b, 1 << (a ^ b).bit_length()
qubits wide, where it is the projection sum

    C-U(a, b) = |0><0|_a (x) I  +  |1><1|_a (x) U_b

with a and b counted from the block's first qubit.  The block is that
sum's canonical grouping, built with no pointwise add: a class tower
over the first half (the identity, one qubit's cells labelled by class)
picks the second half's block by class.  Control first: class 0 picks
I, class 1 U at the target.  Target first (CNOT; CP is symmetric and
put control first): the diagonal class picks |0><0| at the control,
the off-diagonal |1><1|.  Since (A (x) I) + (B (x) I) = (A + B) (x) I,
canonicity gives the same handle as the sum over the whole register.

_kron_segment alone places blocks among identities, with a balanced
Kronecker tree, so a gate on P qubits touches O(log P) fresh groupings.
A segment depends on its width, its blocks and their positions counted
from its first qubit, not on where it sits in the register.  The
forest's ``gate_blocks`` table keeps each segment, class tower and
controlled block under that offset-free key, so the segment a CNOT
needs at qubits (40, 41) is the one made for (8, 9); it keeps each
folded phase factor under its angle too.  Blocks enter the
key as interned diagrams, which hash and compare by identity; the key
holds a reference, so an identity cannot be freed and reused while the
entry lives.  The table drops with the forest's other memo tables.  A
rebuild at any offset runs the same operations on the same handles in
the same order, so it interns the handle a dropped entry held.
"""

import math
import operator

from .core import Diagram, Forest, evaluate
from .construct import (_fold, _folded, _identity_step, fold, hadamard_family,
                        identity_matrix, identity_proto, not_matrix,
                        scalar_multiply, unfold)
from .matrix import apply_matrix_to_vector, kronecker, matrix_multiply
from .pointwise import subtract
from .sampling import SampleContext, _draw, _target_row
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


def _integer(value, what):
    """``value`` through ``operator.index``, but no bool, as _checked
    takes qubits; anything else raises ValueError."""
    if type(value) is not bool:
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} {value!r} must be an integer")


def _padded(n: int) -> int:
    """The power of two at or above the qubit count ``n``; the one check."""
    if _integer(n, "qubit count") < 1:
        raise ValueError("qubit count must be positive")
    return 1 << (n - 1).bit_length()


def _level(p: int) -> int:
    return p.bit_length()  # p is a power of two: level = log2(p) + 1


def _identity(forest, width):
    return identity_matrix(forest, _level(width))


_ZERO_KET = ("zero_ket", 0, _folded("one", "zero"), _identity_step)
# |0><0| and |1><1|, towers of one level, so with no step.
_PROJECTORS = (
    ("projector0", 1, _folded("one", "zero", "zero", "zero"), None),
    ("projector1", 1, _folded("zero", "zero", "zero", "one"), None))


def _zero_ket(forest, width):
    """|0...0> on ``width`` qubits, a power of two."""
    field = forest.field
    head = forest._tower(_ZERO_KET, _level(width) - 1)
    return forest._hold(forest.diagram(field.one, head,
                                       (field.one, field.zero)))


# -- the gate table ---------------------------------------------------------


def _phase(forest, theta):
    blocks = forest.cache("gate_blocks")
    hit = blocks.get(("PHASE", theta))
    if hit is None:
        field = forest.field
        hit = blocks["PHASE", theta] = fold(
            forest, [field.one, field.zero, field.zero, field.phase(theta)])
    return hit


# kind -> (angle count, qubit count, its one-qubit factor from
# (forest, *angles)); a two-qubit kind applies its factor to the target.
_GATES = {
    "H": (0, 1, lambda forest: hadamard_family(forest, 1)),
    "X": (0, 1, lambda forest: not_matrix(forest, 1)),
    "PHASE": (1, 1, _phase),
}
_GATES["CNOT"] = (0, 2, _GATES["X"][2])
_GATES["CP"] = (1, 2, _phase)


def _checked(gate, n):
    """(factor, angles, qubits) of a gate tuple on n qubits; the one check.

    Raises ValueError unless the kind is in the table and the tuple holds
    exactly its finite angles and its integer qubits (``operator.index``,
    but no bool) in [0, n), with control and target apart.
    """
    try:
        angles, width, factor = _GATES[gate[0]]
    except (KeyError, IndexError, TypeError):
        raise ValueError(f"unknown gate {gate!r}") from None
    if len(gate) != 1 + angles + width:
        raise ValueError(f"{gate[0]} takes {angles} angle(s) and {width} "
                         f"qubit(s), got {gate!r}")
    thetas, qubits = gate[1:1 + angles], gate[1 + angles:]
    try:
        finite = all(map(math.isfinite, thetas))
    except TypeError:  # a string or complex angle
        finite = False
    try:  # map() keeps the per-item work in C, and the check cheap
        ints = tuple(map(operator.index, qubits))
    except TypeError:
        ints = None
    if not finite:
        raise ValueError(f"angles {thetas!r} must be finite numbers")
    if ints is None or bool in map(type, qubits):
        raise ValueError(f"qubits {qubits!r} must be integers")
    for q in ints:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n} qubits")
    if width == 2 and ints[0] == ints[1]:
        raise ValueError(f"{gate[0]} control and target must differ")
    return factor, thetas, ints


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

    def __init__(self, n: int):
        _padded(n)
        self.n = n
        self.gates = []

    def _add(self, *gate):
        _, angles, qubits = _checked(gate, self.n)
        self.gates.append((gate[0], *angles, *qubits))
        return self

    def h(self, q: int):
        return self._add("H", q)

    def x(self, q: int):
        return self._add("X", q)

    def phase(self, theta: float, q: int):
        return self._add("PHASE", theta, q)

    def cnot(self, control: int, target: int):
        return self._add("CNOT", control, target)

    def cp(self, theta: float, control: int, target: int):
        return self._add("CP", theta, control, target)

    def __repr__(self):
        return f"<Circuit {self.n} qubits, {len(self.gates)} gates>"


def parse_circuit(text: str, n: int | None = None) -> Circuit:
    """Circuit from one gate per line.

    Gates: H q | X q | PHASE theta q | CNOT c t | CP theta c t, the kind
    in any case.  Blank lines and lines starting with # are skipped.
    The qubit count is inferred from the largest index unless given.
    A malformed gate raises ValueError naming its line.
    """
    parsed = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *args = line.upper().split()
        try:
            angles = _GATES[kind][0]
            gate = (kind, *map(float, args[:angles]),
                    *map(int, args[angles:]))
        except (KeyError, ValueError):
            raise ValueError(f"line {lineno}: cannot parse {line!r}") from None
        parsed.append((lineno, gate))
        top = max((top,) + gate[1 + angles:])
    if not parsed and n is None:
        raise ValueError("empty circuit and no qubit count given")
    circuit = Circuit(max(top + 1, 1) if n is None else n)
    for lineno, gate in parsed:
        try:
            circuit._add(*gate)
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
    return circuit


# -- gate construction -----------------------------------------------------


def _projector(forest, bit):
    """The one-qubit projector |bit><bit|, a tower of the forest."""
    one, zero = forest.field.one, forest.field.zero
    return forest._hold(forest.diagram(one, forest._tower(_PROJECTORS[bit], 1),
                                       (zero, one) if bit else (one, zero)))


def _kron_segment(forest, width, specials, default=_identity, span=1):
    """Kronecker product of blocks and defaults over ``width`` qubits.

    ``specials`` holds (qubit, block) pairs in ascending qubit order,
    counted from the segment's first qubit; each block is ``span``
    qubits wide and aligned to ``span``.  Every other span takes
    ``default``'s factor, and an all-default segment is
    ``default(forest, width)``.  Segments wider than ``span`` are kept
    in ``gate_blocks`` under (width, default, specials).
    """
    if not specials:
        return default(forest, width)
    if width == span:
        return specials[0][1]
    blocks = forest.cache("gate_blocks")
    key = (width, default, specials)
    hit = blocks.get(key)
    if hit is None:
        half = width // 2
        left = tuple(s for s in specials if s[0] < half)
        right = tuple((q - half, u) for q, u in specials if q >= half)
        hit = blocks[key] = kronecker(
            _kron_segment(forest, half, left, default, span),
            _kron_segment(forest, half, right, default, span))
    return hit


def _class_tower(forest, width, q, cells):
    """The identity proto over ``width`` qubits, its nonzero cells
    labelled by the class of qubit q's cell; (grouping, exit labels).

    ``cells`` labels q's four cells in assignment order, "z" a zero
    cell.  Width 1 folds them; above it, diagonal paths keep their
    class and off-diagonal paths go to the zero proto."""
    blocks = forest.cache("gate_blocks")
    hit = blocks.get((width, q, cells))
    if hit is None:
        field = forest.field
        if width == 1:
            weights = [field.zero if c == "z" else field.one for c in cells]
            g, _, labels = _fold(forest, weights, cells)
        else:
            half = width // 2
            zero = (forest.zero_proto(_level(half)), ("z",))
            diagonal = identity_proto(forest, _level(half))
            if q < half:
                a, classes = _class_tower(forest, half, q, cells)
                middles = [zero if c == "z" else (diagonal, (c, "z"))
                           for c in classes]
            else:
                a = diagonal
                middles = [_class_tower(forest, half, q - half, cells), zero]
            g, labels = forest.join(a, middles)
            g.canonical = True
        hit = blocks[width, q, cells] = (g, labels)
    return hit


def _controlled(forest, width, a, b, u):
    """C-U, control a and target b, on the smallest aligned block of
    ``width`` qubits holding both: one grouping over a class tower.
    Each class block has factor 1, so its values give the exits."""
    blocks = forest.cache("gate_blocks")
    hit = blocks.get((width, a, b, u))
    if hit is None:
        field = forest.field
        half = width // 2
        if a < b:
            tower, classes = _class_tower(forest, half, a, ("0", "z", "z", "1"))
            parts = {"0": _identity(forest, half),
                     "1": _kron_segment(forest, half, ((b - half, u),))}
        else:  # U is X
            tower, classes = _class_tower(forest, half, b, ("0", "1", "1", "0"))
            parts = {str(bit): _kron_segment(
                forest, half, ((a - half, _projector(forest, bit)),))
                for bit in (0, 1)}
        parts["z"] = forest.zero_diagram(_level(half))
        if parts["0"] is parts["1"]:  # U is I: nothing acts
            hit = _identity(forest, width)
        else:
            g, values = forest.join(
                tower, [(parts[c].head, parts[c].values) for c in classes],
                field.key)
            g.canonical = True
            hit = forest.diagram(field.one, g, values)
        blocks[width, a, b, u] = hit
    return hit


def build_gate(forest: Forest, gate, n: int) -> Diagram:
    """The full n-qubit (padded) matrix for one gate description.

    ``gate`` is a tuple as stored by Circuit: ("H", q), ("X", q),
    ("PHASE", theta, q), ("CNOT", a, b), or ("CP", theta, a, b).
    Raises ValueError for a gate the one gate check rejects.
    """
    p = _padded(n)
    factor, angles, qubits = _checked(gate, n)
    u = factor(forest, *angles)
    if len(qubits) == 1:
        return _kron_segment(forest, p, ((qubits[0], u),))
    # CP is symmetric, so both orders share the control-first block.
    a, b = sorted(qubits) if gate[0] == "CP" else qubits
    width = 1 << (a ^ b).bit_length()
    block = _controlled(forest, width, a % width, b % width, u)
    return _kron_segment(forest, p, ((a - a % width, block),), span=width)


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
    """All 2^n amplitudes in basis-label order; desk scale only.

    The padded state's ``unfold`` at the labels whose padding qubits,
    the low bits, are 0; each is bit-equal to ``amplitude``'s value."""
    if state.n > 16:
        raise ValueError("state_vector is meant for small qubit counts")
    return unfold(state.diagram)[::1 << (state.padded - state.n)]


def measure(state: QuantumState, shots: int, seed: int):
    """Histogram of basis labels sampled from |amplitude|^2.

    Padding qubits are stripped from each draw; the result maps
    n-character bit strings to counts.  ``shots`` must be an integer,
    and a negative one raises.
    """
    if _integer(shots, "shot count") < 0:
        raise ValueError(f"shot count {shots} is negative")
    counts = {}
    if not shots:
        # Zero shots draw nothing, so a zero state is no error here.
        return counts
    row = _target_row(state.diagram, view=True)
    rng = SampleContext(seed).source
    n = state.n
    for _ in range(shots):
        label = _draw(row, rng)[:n]
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


def _oracle_circuit(n, hidden):
    """H around a CNOT into the |-> ancilla n from each 1 bit of hidden."""
    c = Circuit(n + 1)
    c.x(n)
    for q in range(n + 1):
        c.h(q)
    for q, bit in enumerate(hidden):
        if bit == "1":
            c.cnot(q, n)
    for q in range(n):
        c.h(q)
    return c


def bernstein_vazirani(n: int, hidden: str) -> Circuit:
    """BV over n input qubits and one ancilla; measuring gives hidden."""
    if len(hidden) != n or set(hidden) - {"0", "1"}:
        raise ValueError("hidden string must be n bits of 0/1")
    return _oracle_circuit(n, hidden)


def deutsch_jozsa(n: int, hidden: str | None) -> Circuit:
    """DJ with a balanced oracle from a nonzero hidden string.

    ``hidden=None`` builds the constant-zero oracle; measuring the
    input register then gives all zeros, versus never all zeros for a
    balanced oracle.
    """
    if hidden is not None and (len(hidden) != n or set(hidden) - {"0", "1"}
                               or hidden == "0" * n):
        raise ValueError("hidden string must be n bits and nonzero")
    return _oracle_circuit(n, hidden or "")


def qft(n: int, basis: int = 0) -> Circuit:
    """QFT circuit; run on |basis> it yields the Fourier-transformed state.

    The basis state is prepared with X gates, then the textbook ladder
    of H and controlled phases runs, and final swaps (three CNOTs each)
    restore ascending bit order.
    """
    c = Circuit(n)
    if not 0 <= _integer(basis, "basis label") < (1 << n):
        raise ValueError("basis label out of range")
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
    h = hadamard_family(forest, 1)
    hadamards = _kron_segment(forest, p, tuple((q, h) for q in range(n)))
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
