"""A deterministic single-fault mutation corpus for the command line.

One valid document per subcommand, a second solve-grid document with no
radius, a second heat document whose ladder is not zero and a third with
three points are mutated one fault at a time: each key or list entry is
deleted or replaced by each value of MUTATIONS, and each object gains an
unknown key.  Whatever the document, main must return an exit code in
{0, 2, 3, 4} without raising or printing a traceback, write nothing to
stdout on exit 2, and, for solve-grid on exit 0, write one row per input
point.
"""

import copy
import json

import pytest

from transportkit.cli import main

MUTATIONS = (None, True, "x", -1, 0, 1.5, 1e-300, 1e200, 10**400, [], {},
             [[1.0, 2.0]], {"re": 1.0, "im": 2.0}, "matrix:1")


def _jet(n, N, shape, terms):
    return {"n": n, "N": N, "shape": shape,
            "terms": [{"alpha": alpha, "coeff": c} for alpha, c in terms]}


def _problem(lam, v_terms=(([2], [1.0]),)):
    # y u' + u = lam u + v at the source 0 of X = y, v = y^2 by default
    return {"n": 1, "m": 1, "N": 3,
            "X": [_jet(1, 3, "scalar", [([1], 1.0)])],
            "A": _jet(1, 3, "matrix:1", [([0], [[1.0]])]),
            "v": _jet(1, 3, "vector:1", list(v_terms)),
            "lambda": lam}


def _document(**blocks):
    return {"schema_version": 1, "field": "real", **blocks}


# lambda = 2 is resonant at degree 1 and solvable, so the kernel commands
# have a kernel to report and solve-grid runs in split mode.  Its head at
# the split order 2 holds all of y^2, so solve-grid's v has a y^3 term as
# well: the remainder is not zero and the tail fit and horizon rule run
BASE = {
    "spectrum": _document(problem=_problem(2.0)),
    "solve-jet": _document(problem=_problem(2.0)),
    "kernel": _document(problem=_problem(2.0)),
    "dual-kernel": _document(problem=_problem(2.0)),
    "solvable": _document(problem=_problem(2.0)),
    "solve-grid": _document(
        problem=_problem(2.0, (([2], [1.0]), ([3], [1.0]))),
        grid={"points": [[0.1], [0.5]],
              "config": {"rel_tol": 1e-8, "radius": 10.0, "max_horizon": 200.0}}),
    # with no radius a point of 1e200 reaches the integrator and the head
    "solve-grid/no-radius": _document(
        problem=_problem(2.0, (([2], [1.0]), ([3], [1.0]))),
        grid={"points": [[0.1], [0.5]],
              "config": {"rel_tol": 1e-8, "max_horizon": 200.0}}),
    "heat": _document(heat={"n": 1, "m": 1, "J": 1, "N": 3,
                            "K": _jet(1, 3, "scalar", [([2], 1.0)]),
                            "points": [[0.3]]}),
    # the base above keeps K to order N - 2 = 1 in L Phi_0, which drops its
    # y^2 term, so no fault can overflow there; with J = 2 and N = 5 a 1e200
    # reaches the ladder and the quadrature
    "heat/ladder": _document(heat={
        "n": 1, "m": 1, "J": 2, "N": 5,
        "K": _jet(1, 5, "scalar", [([0], 0.5), ([2], 1.0), ([3], 0.2)]),
        "points": [[0.3]]}),
    # three points go through the stacked values in one call, so a fault in
    # one point meets the good rows of the others
    "heat/points": _document(heat={
        "n": 1, "m": 1, "J": 2, "N": 5,
        "K": _jet(1, 5, "scalar", [([0], 0.5), ([2], 1.0), ([3], 0.2)]),
        "points": [[0.3], [-0.6], [0.9]]}),
    "wkb": _document(wkb={"V": _jet(1, 6, "scalar",
                                    [([2], 1.0), ([4], 0.1)]),
                          "level": 0, "J": 1, "N": 6}),
    "verify-estimates": _document(estimates={
        "A0": [[1.0, 1.0], [0.0, 1.0]], "eps": 0.25, "t0": -1.0,
        "mode": "direct",
        "path": {"rate": 1.0, "B": [[0.02, 0.0], [0.01, -0.02]],
                 "t_min": -6.0, "samples": 11}}),
    "sternberg": _document(sternberg={"mu": [1.0, 2.5]}),
}


def _paths(node, prefix=()):
    """The location of every value below node: dict keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _label(path):
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                         for k in path)


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _edit(doc, path, change):
    doc = copy.deepcopy(doc)
    change(_node(doc, path[:-1]), path[-1])
    return doc


def mutants(doc):
    """(label, document) for the unchanged doc and each single fault of it."""
    yield "unchanged", doc
    paths = list(_paths(doc))
    for path in paths:
        label = _label(path)
        yield f"{label} deleted", _edit(doc, path, lambda t, k: t.pop(k))
        for value in MUTATIONS:
            yield (f"{label} = {json.dumps(value)[:12]}",
                   _edit(doc, path, lambda t, k: t.__setitem__(
                       k, copy.deepcopy(value))))
    for path in [()] + paths:
        if isinstance(_node(doc, path), dict):
            yield (f"{_label(path)}.bogus added",
                   _edit(doc, path + ("bogus",),
                         lambda t, k: t.__setitem__(k, 1)))


@pytest.mark.parametrize("base", sorted(BASE))
def test_single_fault_corpus(base, tmp_path, capsys):
    command = base.split("/")[0]
    path = tmp_path / "doc.json"
    failures = []
    for label, doc in mutants(BASE[base]):
        path.write_text(json.dumps(doc))
        try:
            code = main([command, str(path), "--no-timestamp"])
        except Exception as exc:
            capsys.readouterr()
            failures.append(f"{label}: raised {type(exc).__name__}: {exc}"[:200])
            continue
        out, err = capsys.readouterr()
        if code not in (0, 2, 3, 4):
            failures.append(f"{label}: exit {code}")
        if "Traceback" in err:
            failures.append(f"{label}: traceback on stderr")
        if code == 2 and out:
            failures.append(f"{label}: exit 2 wrote to stdout")
        if command == "solve-grid" and code == 0:
            rows = [l for l in out.splitlines() if not l.startswith("#")]
            if len(rows) - 1 != len(doc["grid"]["points"]):
                failures.append(f"{label}: {len(rows) - 1} rows for "
                                f"{len(doc['grid']['points'])} points")
        if label == "unchanged" and code != 0:
            failures.append(f"the base document exits {code}: {err}")
    assert not failures, (f"{len(failures)} failures:\n"
                          + "\n".join(failures[:25]))
