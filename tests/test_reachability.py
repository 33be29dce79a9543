"""Every definition in `src/ccnops` is reached from the program, or kept for a stated reason.

A name-reachability scan over the source (AST).  The roots are `cli.main`,
every identifier in `bench/` (its span targets are strings that
`bench/spans.py` reads through `vars(owner)[attr]`) and the module-level
code of `src/ccnops`.  A definition is a module-level function or class, or
a method of such a class.  A name reaches every definition of that name,
and a reached definition adds the names its code reads; a class's dunder
methods go with the class, since Python calls them.  Names, not objects,
are matched, so the scan can only over-report reach: a definition that
shares its name with reached code passes unseen, never the other way round.

A new function that only tests call fails here until it gets a caller in
the program, moves into the tests that use it, or is named in KEEP with
its reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the definitions no root reaches, each with the reason it stays in `src`
KEEP = {
    "families.wedge_section": "criterion 9 checks the residue conditions of the wedge of two sections",
    "families._perm_sign": "the permutation sign of `wedge_section`",
    "conditions.check_polarization": "the polarization rows of the first-order solve (ROADMAP item 2) give it a caller",
    "symbols.PolarizationRecord.pullback": "the polarization rows of the first-order solve (ROADMAP item 2) give it a caller",
    "symbols.ThetaExpr.zpart_quadratic": "the polarization rows of the first-order solve (ROADMAP item 2) give it a caller",
    "diffop.DifferenceOperator.gauge_conjugate": "test_gauge_t_reflection checks the t <-> q - t gauge symmetry with it, and no other test does",
}


def _sources():
    """{module name: source text} of `src/ccnops`."""
    return {path.stem: path.read_text() for path in sorted((ROOT / "src" / "ccnops").glob("*.py"))}


def _names(nodes):
    """The identifiers the nodes read: names and attribute names."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def unreached(sources):
    """The qualified names ("module.name", "module.Class.method") of the definitions no root reaches."""
    defs, roots = {}, {"main"}
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs["%s.%s" % (module, node.name)] = _names([node])
            elif isinstance(node, ast.ClassDef):
                methods = [s for s in node.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
                reads = _names(node.bases + node.keywords + node.decorator_list + [s for s in node.body if s not in methods])
                for method in methods:
                    defs["%s.%s.%s" % (module, node.name, method.name)] = _names([method])
                    if method.name.startswith("__") and method.name.endswith("__"):
                        reads.add(method.name)
                defs["%s.%s" % (module, node.name)] = reads
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names([node])
    for path in sorted((ROOT / "bench").glob("*.py")):
        roots |= set(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    by_name = {}
    for qual in defs:
        by_name.setdefault(qual.rsplit(".", 1)[1], []).append(qual)
    reached, seen, todo = set(), set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for qual in by_name.get(name, ()):
                reached.add(qual)
                todo.extend(defs[qual])
    return set(defs) - reached


def test_every_unreached_definition_is_kept_for_a_reason():
    assert unreached(_sources()) == set(KEEP)


def test_the_scan_flags_a_function_only_tests_call():
    # a function whose only reader is another unreached function is flagged too
    sources = _sources()
    sources["weyl"] += "\n\ndef only_tests_call_this(rows):\n    return _helper_of_it(rows)\n\n\ndef _helper_of_it(rows):\n    return rows\n"
    assert unreached(sources) == set(KEEP) | {"weyl.only_tests_call_this", "weyl._helper_of_it"}
