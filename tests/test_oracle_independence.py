"""The oracles in helpers.py share no code with the randisc code they check.

Read with ast, not imported: a guarded oracle, or a helpers.py function it
calls, must not name randisc, one of its modules, or anything helpers.py
imports from it.
"""

import ast
from pathlib import Path

TREE = ast.parse(Path(__file__).with_name("helpers.py").read_text())
FUNCTIONS = {node.name: node for node in TREE.body if isinstance(node, ast.FunctionDef)}
GUARDED = sorted(
    name
    for name in FUNCTIONS
    if name in ("phi_fixed_weight_oracle", "pair_stats_oracle") or name.startswith("brute_ratio_")
)


def _from_randisc(node):
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "randisc"
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "randisc" for a in node.names)
    return False


def _randisc_names():
    names = {"randisc", "moments", "stein"}
    for node in TREE.body:
        if _from_randisc(node):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def _reach(name):
    """name and every helpers.py function it calls, directly or not."""
    seen, todo = set(), [name]
    while todo:
        fn = todo.pop()
        if fn not in seen:
            seen.add(fn)
            calls = (n.id for n in ast.walk(FUNCTIONS[fn]) if isinstance(n, ast.Name))
            todo += [c for c in calls if c in FUNCTIONS]
    return seen


def test_guarded_oracles_are_found():
    assert {"phi_fixed_weight_oracle", "pair_stats_oracle", "brute_ratio_dense",
            "brute_ratio_poisson_fixed", "brute_ratio_bernoulli_fixed"} <= set(GUARDED)


def test_guarded_oracles_name_no_randisc_code():
    banned = _randisc_names()
    for name in GUARDED:
        for fn in sorted(_reach(name)):
            for node in ast.walk(FUNCTIONS[fn]):
                assert not _from_randisc(node), f"{name} imports randisc via {fn}"
                used = getattr(node, "id", None) or getattr(node, "attr", None)
                assert used not in banned, f"{name} names randisc's {used!r} via {fn}"
