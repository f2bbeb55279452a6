"""Textual dump round trips and DOT export."""

import subprocess
import sys
from fractions import Fraction

import pytest

from wcflobdd.core import Forest, validate
from wcflobdd.construct import (exp_family, fold, hadamard_family,
                                identity_matrix, unfold, walsh_family)
from wcflobdd.matrix import kronecker, matrix_multiply
from wcflobdd.pointwise import add, multiply
from wcflobdd.quantum import ghz, quantum_forest, run_circuit
from wcflobdd.sampling import measure_view
from wcflobdd.serialize import dump_diagram, export_dot, load_diagram
from wcflobdd.semifield import complex_field, rational_field, real_field

import oracle

F = Forest(rational_field())


def test_rational_round_trips():
    rng = oracle.seeded(3)
    pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
            Fraction(1, 2), Fraction(-3, 7)]
    for level in (0, 1, 2):
        n = 1 << (1 << level)
        for _ in range(30):
            d = fold(F, [pool[rng.randrange(len(pool))] for _ in range(n)])
            text = dump_diagram(d)
            assert load_diagram(text, F) is d
            fresh = load_diagram(text)
            assert unfold(fresh) == unfold(d)


def test_huge_power_weights_round_trip():
    d = exp_family(F, 16)
    text = dump_diagram(d)
    assert "2^" in text
    assert load_diagram(text, F) is d


def test_walsh_and_float_round_trips():
    w = walsh_family(F, 2)
    assert load_diagram(dump_diagram(w), F) is w
    fl = Forest(real_field())
    h = hadamard_family(fl, 2)
    assert load_diagram(dump_diagram(h), fl) is h


def test_complex_round_trip():
    fc = quantum_forest()
    d = run_circuit(ghz(2), fc).diagram
    assert load_diagram(dump_diagram(d), fc) is d


def test_dump_is_stable():
    d = fold(F, [1, 2, 3, 5])
    assert dump_diagram(d) == dump_diagram(d)
    assert dump_diagram(d).startswith("wcflobdd 1 rational\n")


def test_dot_cluster_count():
    fl = Forest(real_field())
    dot = export_dot(hadamard_family(fl, 1))
    assert dot.count("subgraph cluster_") == 4
    assert export_dot(hadamard_family(fl, 1)) == dot
    assert export_dot(F.zero_diagram(0)).count("subgraph cluster_") == 1
    assert export_dot(identity_matrix(F, 2)) == \
        export_dot(identity_matrix(F, 2))


def test_load_rejects_bad_input():
    try:
        load_diagram("nonsense\n")
        assert False
    except ValueError:
        pass
    w = walsh_family(F, 2)
    try:
        load_diagram(dump_diagram(w), Forest(real_field()))
        assert False, "field mismatch must be rejected"
    except ValueError:
        pass
    try:
        load_diagram("wcflobdd 1 rational\ng 0 fork 1\n")
        assert False
    except ValueError as e:
        assert "line 2" in str(e)


_NON_FINITE = {"real": ("inf", "-inf", "nan", "1e400"),
               "complex": ("inf,0.0", "0.0,-inf", "nan,0.0", "0.0,nan",
                           "1e400,0.0", "0.0,-1e400")}


def _non_finite_dumps():
    """(text, line number) of real and complex dumps, each with one
    inf, nan or out-of-range weight: first in the factor, then in the
    right weight of the first leaf."""
    dumps = (dump_diagram(hadamard_family(Forest(real_field()), 1)),
             dump_diagram(run_circuit(ghz(2), quantum_forest()).diagram))
    for dump in dumps:
        lines = dump.splitlines()
        leaf = next(i for i, ln in enumerate(lines) if " fork " in ln)
        for bad in _NON_FINITE[lines[0].split()[2]]:
            for index, slot in ((len(lines) - 1, 1), (leaf, 4)):
                parts = lines[index].split()
                parts[slot] = bad
                edited = lines[:index] + [" ".join(parts)] + lines[index + 1:]
                yield "\n".join(edited) + "\n", index + 1


def test_load_rejects_non_finite_weights():
    cases = list(_non_finite_dumps())
    assert len(cases) == 20
    for text, line in cases:
        with pytest.raises(ValueError, match=f"line {line}:.*not finite"):
            load_diagram(text)


def test_load_rejects_a_zero_denominator():
    # Fraction("1/0") raised ZeroDivisionError through the loader, which
    # named no line.
    good = "wcflobdd 1 rational\ng 0 fork 1 1/2\nd 1 0 1 0\n"
    assert unfold(load_diagram(good)) == [1, 0]
    for index, bad in ((1, "g 0 fork 1 1/0"), (2, "d 1/0 0 1 0"),
                       (2, "d 1 0 -3/0 0")):
        lines = good.splitlines()
        lines[index] = bad
        with pytest.raises(ValueError, match=f"line {index + 1}:.*zero "
                                             "denominator"):
            load_diagram("\n".join(lines) + "\n")


def test_cli_rejects_non_finite_dumps(tmp_path):
    # A real dump with an inf factor and a nan leaf used to validate as
    # ok and evaluate to inf.
    lines = dump_diagram(hadamard_family(Forest(real_field()), 1)).split("\n")
    lines = [ln.replace("dontcare 1.0 -1.0", "dontcare 1.0 nan")
             for ln in lines[:-2]] + ["d inf 3 1.0", ""]
    path = tmp_path / "bad.dump"
    path.write_text("\n".join(lines))
    for argv in (("validate", str(path)), ("eval", str(path), "11")):
        out = subprocess.run([sys.executable, "-m", "wcflobdd.cli", *argv],
                             capture_output=True, text=True)
        assert out.returncode == 2, (argv, out.stdout, out.stderr)
        assert "not finite" in out.stderr and out.stdout == ""


def test_dump_record_order():
    # Children precede parents; within a parent the A-connection comes
    # before the B-connections, in middle order, and a shared grouping
    # is written once, where the walk first meets it.
    assert dump_diagram(identity_matrix(F, 1)) == (
        "wcflobdd 1 rational\n"
        "g 0 fork 1 1\n"
        "g 1 fork 1 0\n"
        "g 2 fork 0 1\n"
        "g 3 internal 1 0 2\n"
        "b 1 1,2\n"
        "b 2 2,1\n"
        "d 1 3 1 0\n")
    assert dump_diagram(identity_matrix(F, 2)) == (
        "wcflobdd 1 rational\n"
        "g 0 fork 1 1\n"
        "g 1 fork 1 0\n"
        "g 2 fork 0 1\n"
        "g 3 internal 1 0 2\n"
        "b 1 1,2\n"
        "b 2 2,1\n"
        "g 4 dontcare 0 1\n"
        "g 5 internal 1 4 1\n"
        "b 4 1\n"
        "g 6 internal 2 3 2\n"
        "b 3 1,2\n"
        "b 5 2\n"
        "d 1 6 1 0\n")


def test_load_rejects_redefinitions(tmp_path):
    # A reused grouping id silently rebound later references (this dump
    # loaded as [1, 2, 7, 28/3]), and a second diagram record replaced
    # the first ([5, 10, 15, 20]).
    good = dump_diagram(fold(F, [1, 2, 3, 4]))
    lines = good.splitlines()
    at = next(i for i, ln in enumerate(lines) if " internal " in ln)
    cases = (("\n".join(lines[:at] + ["g 0 fork 1 7"] + lines[at:]) + "\n",
              at + 1, "grouping 0 is defined twice"),
             (good + "d 5 3 1\n", len(lines) + 1, "second diagram record"))
    for text, line, why in cases:
        with pytest.raises(ValueError, match=f"line {line}:.*{why}"):
            load_diagram(text)
        path = tmp_path / "bad.dump"
        path.write_text(text)
        out = subprocess.run([sys.executable, "-m", "wcflobdd.cli", "eval",
                              str(path), "11"], capture_output=True, text=True)
        assert out.returncode == 2 and why in out.stderr, out.stderr


@pytest.mark.parametrize("field", [rational_field(), real_field(),
                                   complex_field()], ids=lambda f: f.name)
def test_operations_on_loaded_operands(field):
    # Loaded groupings carry no canonical flag, so the operations take
    # their unflagged branches (the matrix product's collapse-and-reduce
    # among them) and must still reach the in-memory result's handle.
    rng = oracle.seeded(f"loaded-{field.name}")
    kind = "rational" if field is rational_field() else "complex"
    ops = (add, multiply, kronecker, matrix_multiply)
    for level in (1, 2, 3):
        for _ in range(3):
            src, dst = Forest(field), Forest(field)
            tables = [oracle.random_table(rng, 1 << level, kind)
                      for _ in range(2)]
            if field is real_field():
                tables = [[v.real for v in t] for t in tables]
            a, b = (fold(src, t) for t in tables)
            la, lb = (load_diagram(dump_diagram(d), dst) for d in (a, b))
            for op in ops:
                got = op(la, lb)
                assert got is load_diagram(dump_diagram(op(a, b)), dst), \
                    (level, op.__name__)


def test_load_rejects_invalid_diagrams(tmp_path):
    # These loaded before: unnormalized leaves (added to a level-1 table,
    # the first gave a handle only by merging equal cross-product exits),
    # an exit with value 1 reached by zero-weight paths only, and the
    # duplicate middles of a measure view with phases.  Operations on
    # such operands gave handles other than fold's, or a float-range
    # error on the rational instance.
    head = "wcflobdd 1 rational\n"
    view = measure_view(fold(quantum_forest(), [0.5, 0.5, 0.5, -0.5]))
    cases = ((head + "g 0 dontcare 2 2\ng 1 fork 1 1\ng 2 internal 1 1 2\n"
              "b 0 1\nb 0 2\nd 1 2 1 0\n", "not normalized"),
             (head + "g 0 fork 0 1\nd 2 0 1 0\n", "no nonzero path"),
             (head + "g 0 dontcare 2 -1\nd 2 0 1\n", "not normalized"),
             (dump_diagram(view), "duplicate"))
    for text, why in cases:
        with pytest.raises(ValueError, match=f"not valid: .*{why}"):
            load_diagram(text)
        path = tmp_path / "bad.dump"
        path.write_text(text)
        out = subprocess.run([sys.executable, "-m", "wcflobdd.cli",
                              "validate", str(path)],
                             capture_output=True, text=True)
        assert out.returncode == 2 and why in out.stderr, out.stderr


# The dump of the level-1 identity, and one structural fault per row:
# (edits by line index, None deleting, the dump line that names the
# fault, the message of the constructor that rejects it).
_IDENTITY_1 = ("wcflobdd 1 rational", "g 0 fork 1 1", "g 1 fork 1 0",
               "g 2 fork 0 1", "g 3 internal 1 0 2", "b 1 1,2", "b 2 2,1",
               "d 1 3 1 0")
_STRUCTURAL_FAULTS = (
    ({5: "b 1 1,1"}, 5, "return tuple maps two exits together"),
    ({5: "b 1 2,1"}, 5, "exit numbers must appear in first-occurrence order"),
    ({5: "b 1 0,1"}, 5, "bad return-tuple entry 0"),
    ({5: "b 1 -1,1"}, 5, "bad return-tuple entry -1"),
    ({5: "b 1 1,3"}, 5, "exit numbers must appear in first-occurrence order"),
    ({4: "g 3 internal 1 0 1", 6: None}, 5,
     "middle count != A-connection exits"),
    ({5: "b 1 1"}, 5, "return tuple length != B-connection exits"),
    ({7: "d 1 3 1"}, 8, "value tuple length != head exits"),
    ({7: "d 1 3 1 1"}, 8, "value tuple entries must be distinct"),
    ({7: "d 1 3 1 2"}, 8, "value tuple entries must be 0 or 1"),
    ({4: "g 3 internal 2 0 2"}, 5, "grouping 3 level mismatch"),
)


def _faulty_identity_dumps():
    """(text, error message) of each row of ``_STRUCTURAL_FAULTS``."""
    for edits, line, why in _STRUCTURAL_FAULTS:
        lines = [edits.get(i, ln) for i, ln in enumerate(_IDENTITY_1)]
        lines = [ln for ln in lines if ln is not None]
        yield ("\n".join(lines) + "\n",
               f"dump line {line}: {lines[line - 1]!r} ({why})")


def test_load_names_the_line_of_each_structural_fault(tmp_path):
    # validate does not repeat these checks: Forest.join, the loader
    # (its explicit exit numbers) and Forest.diagram reject each fault
    # as its record is read.
    forest = Forest(rational_field())
    good = "\n".join(_IDENTITY_1) + "\n"
    assert load_diagram(good, forest) is identity_matrix(forest, 1)
    cases = list(_faulty_identity_dumps())
    assert len(cases) == 11
    for text, message in cases:
        with pytest.raises(ValueError) as info:
            load_diagram(text)
        assert str(info.value) == message
    path = tmp_path / "bad.dump"
    path.write_text(cases[0][0])
    out = subprocess.run([sys.executable, "-m", "wcflobdd.cli", "validate",
                          str(path)], capture_output=True, text=True)
    assert out.returncode == 2 and cases[0][1] in out.stderr, out.stderr
    assert out.stdout == ""


def test_scaled_leaf_weights_load_valid_or_are_rejected():
    # Scaling leaf weights of seeded dumps: a dump that loads gives a
    # diagram that validates, with the handle fold gives its table.
    rng = oracle.seeded("scaled-leaves")
    forest = Forest(rational_field())
    outcomes = set()
    for _ in range(100):
        table = oracle.random_table(rng, 1 << rng.choice((1, 2)))
        lines = dump_diagram(fold(forest, table)).splitlines()
        for i, line in enumerate(lines):
            parts = line.split()
            if parts[2:3] in (["fork"], ["dontcare"]) and rng.random() < 0.5:
                scale = Fraction(rng.choice((-2, -1, 0, 2, 3)),
                                 rng.choice((1, 2)))
                for slot in (3, 4) if rng.random() < 0.7 else (3,):
                    parts[slot] = str(Fraction(parts[slot]) * scale)
                lines[i] = " ".join(parts)
        try:
            d = load_diagram("\n".join(lines) + "\n", forest)
        except ValueError:
            outcomes.add("rejected")
            continue
        outcomes.add("loaded")
        assert validate(d) == [] and d is fold(forest, unfold(d))
    assert outcomes == {"rejected", "loaded"}
