"""The exit-code contract of `umlab`, checked in-process on every verb.

0 is a positive decision, 1 a negative one and 2 bad input; an input,
however malformed, never makes `main` crash (exit 3, with a traceback).
Each call feeds one verb valid documents of which, most of the time,
one file or one flag is mutated by a seeded rule: a dropped key or
element, a value of the wrong JSON type, a bool, float or string for an
int, 0, a negative or a 10^30 integer, a non-canonical rational, an
empty array, a list nested 1200 deep, bytes that are not UTF-8, or an
empty file.
"""

import contextlib
import copy
import io
import json
import random
from collections import Counter

from umlab import cli

SPACES = [
    {"kind": "matrix", "matrix": [["0", "1", "2"], ["1", "0", "2"], ["2", "2", "0"]]},
    {"kind": "matrix", "matrix": [["0", "1/2"], ["1/2", "0"]]},
    {
        "kind": "balltree",
        "tree": {
            "label": "2",
            "children": [
                {"label": "1", "children": [{"leaf": "a"}, {"leaf": "b"}]},
                {"leaf": "c"},
            ],
        },
    },
]
DOCS = {
    "space": SPACES,
    "qo": [{"n": 3, "pairs": [[0, 1], [1, 2]]}, {"n": 4, "pairs": [[0, 1], [1, 0], [2, 3]]}],
    "multiset": [{"mults": {"0": 2, "1": "omega"}}, {"mults": {"1": 1, "2": "omega"}}],
    "tree": [{"parents": [None, 0, 0, 1]}, {"parents": [None, 0, 1]}],
    "graph": [{"n": 4, "edges": [[0, 1], [2, 3]]}, {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}],
}

# A file slot names its document kind; a flag slot holds a valid value.
S, Q, M, T, G = ("file", "space"), ("file", "qo"), ("file", "multiset"), ("file", "tree"), ("file", "graph")
VERBS = [
    ["space", "check", S],
    ["space", "canon", S],
    ["space", "isom", S, S],
    ["space", "embed", S, S],
    ["qo", "classes", Q],
    ["qo", "cf", Q, M, M],
    ["qo", "inj", Q, M, M],
    ["qo", "inj", Q, M, M, "--method", "wqo"],
    ["qo", "einj", Q, M, M],
    ["qo", "einj", Q, M, M, "--method", "flow", "--paranoid"],
    ["qo", "iterate", Q, M],
    ["qo", "incomparable", Q],
    ["reduce", "theta", T, ("flag", "--radii", "3,1")],
    ["reduce", "glue", S, ("flag", "--distances", "0,1,2,4"), ("flag", "--rbar", "4")],
    ["reduce", "tail", S, ("flag", "--distances", "0,1,2")],
    ["reduce", "phi", S, S, ("flag", "--radius", "3")],
    ["reduce", "decompose", S, ("flag", "--distances", "0,1,2")],
    ["reduce", "rank", T, ("flag", "--radii", "0,1,2,3")],
    ["reduce", "graph", G, ("flag", "--edge", "1"), ("flag", "--nonedge", "3/2")],
    ["reduce", "powerset", ("flag", "--values", "1,3")],
]
VERIFY = [
    ["verify", "canon-vs-brute", "--trials", "3", "--seed", "1"],
    ["verify", "inj-flow-vs-wqo", "--trials", "3", "--max-support", "2"],
    ["verify", "theta-iso", "--trials", "3", "--max-nodes", "5"],
    ["verify", "powerset-embed", "--trials", "2", "--max-points", "4"],
    ["verify", "witness-levels", "--trials=0"],
    ["verify", "witness-levels", "--trials=-1"],
    ["verify", "canon-vs-brute", "--trials", "2", "--max-points", "0"],
    ["verify", "canon-vs-brute", "--trials", "2", "--max-points", "12"],
    ["verify", "inj-flow-vs-wqo", "--trials", "2", "--max-support=-3"],
    ["verify", "no-such-property", "--trials", "1"],
]

DEEP = "@deep@"  # stands for a list nested 1200 deep, spliced into the JSON text
INTS = [True, False, 1.0, 2.5, "1", 0, -1, -(10**30), 10**30]
RATIONALS = ["2/4", "3/1", "01", "+1", "-0", "1.5", " 1", "1/0", "-1", "0", "", "x", "1" + "0" * 30]
VALUES = [DEEP, [], {}, None, "omega", *INTS, *RATIONALS]


def _paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutate(doc, rng: random.Random):
    """One seeded mutation of a JSON document: drop or replace one value."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(_paths(doc)))
    if not path:
        return rng.choice(VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    if rng.random() < 0.25:
        del parent[key]
    elif isinstance(value, int) and not isinstance(value, bool) and rng.random() < 0.7:
        parent[key] = rng.choice(INTS)
    elif isinstance(value, str) and rng.random() < 0.7:
        parent[key] = rng.choice(RATIONALS)
    elif isinstance(value, list) and rng.random() < 0.3:
        parent[key] = []
    else:
        parent[key] = rng.choice(VALUES)
    return doc


def _file_bytes(kind: str, rng: random.Random, mutate: bool) -> bytes:
    if mutate and rng.random() < 0.08:
        return rng.choice([b"", b"\xff\xfe{\x80}", b'{"n": 1, "pairs": ["\xc3\x28"]}'])
    doc = rng.choice(DOCS[kind])
    if mutate:
        doc = _mutate(doc, rng)
    text = json.dumps(doc).replace(json.dumps(DEEP), "[" * 1200 + "]" * 1200)
    return text.encode("utf-8")


def _flag_value(value: str, rng: random.Random) -> str:
    if rng.random() < 0.3:
        return rng.choice(RATIONALS)
    pieces = value.split(",")
    pieces[rng.randrange(len(pieces))] = rng.choice(RATIONALS)
    return ",".join(pieces)


def _call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _argv(template, rng: random.Random, tmp_path, serial: int) -> list[str]:
    slots = [k for k, part in enumerate(template) if isinstance(part, tuple)]
    target = rng.choice(slots) if slots and rng.random() < 0.85 else None
    argv = ["--format", "text"] if rng.random() < 0.1 else []
    for k, part in enumerate(template):
        if not isinstance(part, tuple):
            argv.append(part)
        elif part[0] == "file":
            path = tmp_path / f"{serial}-{k}.json"
            path.write_bytes(_file_bytes(part[1], rng, k == target))
            argv.append(str(path))
        else:
            _, flag, value = part
            argv.append(f"{flag}={_flag_value(value, rng) if k == target else value}")
    return argv


def _check(argv: list[str]) -> int:
    code, out, err = _call(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert out == "" and err.startswith("error: "), (argv, out, err)
    return code


def test_every_verb_keeps_the_exit_code_contract_on_mutated_inputs(tmp_path, monkeypatch):
    # Building the parser takes most of an in-process call; parse_args leaves
    # it unchanged, so the calls share one.
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    rng = random.Random(20141)
    codes: dict[tuple[str, ...], Counter] = {}
    for serial in range(2100):  # 105 calls per verb
        template = VERBS[serial % len(VERBS)]
        key = tuple(part for part in template if isinstance(part, str))
        code = _check(_argv(template, rng, tmp_path, serial))
        codes.setdefault(key, Counter())[code] += 1
    for argv in VERIFY:
        _check(argv)
    # every verb saw both accepted and rejected inputs
    for key, seen in codes.items():
        assert seen[2] and seen[0] + seen[1], (key, seen)
    total = sum(codes.values(), Counter())
    assert total[0] and total[1] and total[2]
