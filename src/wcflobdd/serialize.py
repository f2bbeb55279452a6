"""Textual dump/load of diagrams and a deterministic DOT rendering.

The dump is a line format, one grouping per record in dependency order
(children always precede their parents), so the loader can intern
bottom-up.  The order is ``core.reachable_groupings`` reversed: a
depth-first postorder that visits the A-connection before the
B-connections, in middle order.  Weights are written and read by the
forest's semi-field (``format`` and ``parse``), so every weight
round-trips bit-identically, and a float or complex weight that is inf
or nan is rejected with the line that holds it.  Loaded groupings are
interned but never flagged canonical: the file is untrusted, and
operations only lose a shortcut, not correctness, when the flag is
absent.

The DOT output draws one cluster per distinct grouping with entry,
middle, and exit vertices, decision edges carrying weights at level 0
and connection/return edges above.  It numbers groupings in the same
postorder as the dump, so equal diagrams produce byte-equal text.
"""

from .core import Diagram, Forest, reachable_groupings
from .semifield import field_by_name

__all__ = ["dump_diagram", "load_diagram", "export_dot"]

_FORMAT_NAME = "wcflobdd"
_FORMAT_VERSION = 1


def dump_diagram(diagram: Diagram) -> str:
    """Serialize one diagram; see load_diagram for the inverse."""
    field = diagram.forest.field
    order = reachable_groupings(diagram.head)[::-1]
    ids = {g: i for i, g in enumerate(order)}
    lines = [f"{_FORMAT_NAME} {_FORMAT_VERSION} {field.name}"]
    for i, g in enumerate(order):
        if g.level == 0:
            kind = "dontcare" if g.number_of_exits == 1 else "fork"
            lines.append(f"g {i} {kind} {field.format(g.lw)} "
                         f"{field.format(g.rw)}")
        else:
            lines.append(f"g {i} internal {g.level} {ids[g.a_connection]} "
                         f"{len(g.b_connections)}")
            for b, rt in zip(g.b_connections, g.b_return_tuples):
                targets = ",".join(str(t) for t in rt)
                lines.append(f"b {ids[b]} {targets}")
    values = " ".join(field.format(v) for v in diagram.values)
    lines.append(f"d {field.format(diagram.factor)} "
                 f"{ids[diagram.head]} {values}")
    return "\n".join(lines) + "\n"


def load_diagram(text: str, forest: Forest | None = None) -> Diagram:
    """Rebuild a dumped diagram, interning into ``forest``.

    Without a forest one is created for the field named in the header.
    Raises ValueError on malformed input, such as a grouping id or a
    diagram record given twice, or on a field mismatch.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty dump")
    header = lines[0].split()
    if (len(header) != 3 or header[0] != _FORMAT_NAME
            or header[1] != str(_FORMAT_VERSION)):
        raise ValueError(f"unrecognized dump header: {lines[0]!r}")
    field_name = header[2]
    if forest is None:
        forest = Forest(field_by_name(field_name))
    elif forest.field.name != field_name:
        raise ValueError(f"dump is over the {field_name} instance, "
                         f"forest is {forest.field.name}")
    field = forest.field

    groupings = {}
    diagram = None
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        try:
            if parts[0] == "g" and int(parts[1]) in groupings:
                raise ValueError(f"grouping {parts[1]} is defined twice")
            if parts[0] == "g" and parts[2] in ("fork", "dontcare"):
                gid, kind = int(parts[1]), parts[2]
                exits = 1 if kind == "dontcare" else 2
                groupings[gid] = forest.leaf(field.parse(parts[3]),
                                             field.parse(parts[4]), exits)
                i += 1
            elif parts[0] == "g" and parts[2] == "internal":
                gid, level = int(parts[1]), int(parts[3])
                a = groupings[int(parts[4])]
                count = int(parts[5])
                bs = []
                rts = []
                for j in range(count):
                    bparts = lines[i + 1 + j].split()
                    if bparts[0] != "b":
                        raise ValueError("expected b record")
                    bs.append(groupings[int(bparts[1])])
                    rts.append(tuple(int(t) for t in bparts[2].split(",")))
                g = forest.internal(a, tuple(bs), tuple(rts))
                if g.level != level:
                    raise ValueError(f"grouping {gid} level mismatch")
                groupings[gid] = g
                i += 1 + count
            elif parts[0] == "d":
                if diagram is not None:
                    raise ValueError("second diagram record")
                diagram = forest.diagram(
                    field.parse(parts[1]), groupings[int(parts[2])],
                    tuple(field.parse(t) for t in parts[3:]))
                i += 1
            else:
                raise ValueError("unknown record")
        except (IndexError, KeyError, ValueError) as e:
            raise ValueError(f"dump line {i + 1}: {lines[i]!r} ({e})") from None
    if diagram is None:
        raise ValueError("dump has no diagram record")
    return diagram


def export_dot(diagram: Diagram) -> str:
    """Graphviz text for a diagram; byte-stable for equal diagrams."""
    field = diagram.forest.field
    order = reachable_groupings(diagram.head)[::-1]
    ids = {g: i for i, g in enumerate(order)}
    out = ["digraph wcflobdd {", "  rankdir=TB;",
           "  node [shape=circle, fontsize=10];"]
    for i, g in enumerate(order):
        out.append(f"  subgraph cluster_{i} {{")
        out.append(f"    label=\"g{i} level {g.level}\";")
        out.append(f"    g{i}_entry [label=\"entry\"];")
        if g.level == 0:
            for k in range(1, g.number_of_exits + 1):
                out.append(f"    g{i}_exit{k} [label=\"exit {k}\", "
                           f"shape=doublecircle];")
            out.append(f"    g{i}_entry -> g{i}_exit1 "
                       f"[label=\"0/{field.format(g.lw)}\"];")
            out.append(f"    g{i}_entry -> g{i}_exit{g.number_of_exits} "
                       f"[label=\"1/{field.format(g.rw)}\"];")
        else:
            for m in range(1, len(g.b_connections) + 1):
                out.append(f"    g{i}_mid{m} [label=\"mid {m}\"];")
            for k in range(1, g.number_of_exits + 1):
                out.append(f"    g{i}_exit{k} [label=\"exit {k}\", "
                           f"shape=doublecircle];")
        out.append("  }")
    for i, g in enumerate(order):
        if g.level == 0:
            continue
        a = ids[g.a_connection]
        out.append(f"  g{i}_entry -> g{a}_entry [label=\"A\", style=bold];")
        for m, _ in enumerate(g.b_connections, start=1):
            out.append(f"  g{a}_exit{m} -> g{i}_mid{m} [label=\"ret\"];")
        for m, (b, rt) in enumerate(zip(g.b_connections, g.b_return_tuples),
                                    start=1):
            bid = ids[b]
            out.append(f"  g{i}_mid{m} -> g{bid}_entry "
                       f"[label=\"B{m}\", style=bold];")
            for j, target in enumerate(rt, start=1):
                out.append(f"  g{bid}_exit{j} -> g{i}_exit{target} "
                           f"[label=\"ret m{m}\"];")
    head = ids[diagram.head]
    out.append(f"  free [shape=none, "
               f"label=\"{field.format(diagram.factor)}\"];")
    out.append(f"  free -> g{head}_entry;")
    for k, v in enumerate(diagram.values, start=1):
        out.append(f"  term{k} [shape=box, label=\"{field.format(v)}\"];")
        out.append(f"  g{head}_exit{k} -> term{k};")
    out.append("}")
    return "\n".join(out) + "\n"
