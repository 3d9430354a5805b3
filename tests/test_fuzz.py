"""Mutated game files end in a documented exit code, never a traceback.

Each example takes a game file, applies one to three mutations (a key
dropped or retyped, a dimension inflated, triplets duplicated or
permuted, a NaN or Infinity literal, a value nested deep in lists) and
may truncate the text, then runs `validate` and a five-step `solve` on
it, in time linear in the file's bytes. The games are Kuhn poker, whose
K multiplies as a dense array, and a depth-4 ternary treeplex game,
whose 162x162 K with 443 entries multiplies through compressed rows.
Few mutated files get past the parse, so half the treeplex files
instead take one to three edits that keep the file well formed (a
payoff changed, an E index moved within bounds, an E entry's sign
flipped) and reach the decoder, and many of them the product. Inputs
that once escaped as an exception are kept as explicit examples.
"""

import contextlib
import io
import json
import os
import tempfile
import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqform import kuhn_poker, to_sequence_form
from seqform.cli import main
from conftest import ternary_game

KUHN = to_sequence_form(kuhn_poker())[0].to_dict()
TREEPLEX = ternary_game(4).to_dict()
# the exit codes the command line documents: validate and solve
VALIDATE_CODES = {0, 1, 2}
SOLVE_CODES = {0, 1, 2, 3, 4}
NEST = "__nest__"
# a time bound per byte of a file, 20 times the most, 5 us, the checks have taken
SECONDS_PER_BYTE = 1e-4
MIN_BYTES = 10_000


def paths(doc, prefix=()):
    """Every path from the root of a JSON document to one of its values."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from paths(value, prefix + (key,))


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def put(doc, path, value):
    if not path:
        return value
    get(doc, path[:-1])[path[-1]] = value
    return doc


def numbers(doc):
    return [p for p in paths(doc) if type(get(doc, p)) in (int, float)]


def pick(draw, choices):
    """One of choices, or None when there is none."""
    return draw(st.sampled_from(choices)) if choices else None


def drop(doc, draw):
    path = pick(draw, list(paths(doc))[1:])
    if path is not None:
        del get(doc, path[:-1])[path[-1]]
    return doc


def retype(doc, draw):
    path = draw(st.sampled_from(list(paths(doc))))
    value = draw(st.sampled_from([None, True, False, "1", 0.5, -1, 2 ** 70, [], {}, [1, 2, 3]]))
    return put(doc, path, value)


def inflate(doc, draw):
    dims = [p for p in paths(doc) if p and p[-1] in ("n1", "n2", "l1", "l2", "rows", "cols")]
    triplet_indices = [p for p in numbers(doc) if len(p) == 4 and p[1] == "triplets" and p[3] < 2]
    path = pick(draw, dims + triplet_indices)
    if path is None:
        return doc
    return put(doc, path, draw(st.sampled_from([10 ** 6, 10 ** 9, 2 ** 31, 2 ** 63, 10 ** 30])))


def reshuffle(doc, draw):
    path = pick(draw, [p for p in paths(doc)
                       if p and p[-1] == "triplets" and isinstance(get(doc, p), list)])
    if path is None or not get(doc, path):
        return doc
    items = get(doc, path)
    if draw(st.booleans()):
        items = draw(st.permutations(items))
    else:
        items = items + draw(st.lists(st.sampled_from(items), min_size=1, max_size=5))
    return put(doc, path, list(items))


def non_finite(doc, draw):
    path = pick(draw, numbers(doc))
    if path is None:
        return doc
    return put(doc, path, draw(st.sampled_from(
        [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 1e200, 5e-324])))


MUTATIONS = [drop, retype, inflate, reshuffle, non_finite]


def repay(doc, draw):
    """Change one payoff to another finite number."""
    path = pick(draw, [p for p in numbers(doc) if p[:2] == ("A", "triplets") and p[3] == 2])
    if path is not None:
        put(doc, path, draw(st.floats(-1e3, 1e3)))


def move(doc, draw):
    """Move one row or column index of E1 or E2 to another within the matrix's bounds."""
    path = pick(draw, [p for p in numbers(doc) if p[0] in ("E1", "E2") and p[1] == "triplets"
                       and p[3] < 2])
    if path is not None:
        bound = doc[path[0]]["rows" if path[3] == 0 else "cols"]
        put(doc, path, draw(st.integers(0, bound - 1)))


def flip(doc, draw):
    """Flip the sign of one entry of E1 or E2."""
    path = pick(draw, [p for p in numbers(doc) if p[0] in ("E1", "E2") and p[1] == "triplets"
                       and p[3] == 2])
    if path is not None:
        put(doc, path, -get(doc, path))


# edits in place that keep the file a well-formed game, so it reaches the decoder and K
IN_BOUNDS = [repay, move, flip]


def nest(doc, draw) -> str:
    """The document's JSON text with one value wrapped in a run of list brackets."""
    path = draw(st.sampled_from(list(paths(doc))))
    depth = draw(st.sampled_from([1, 2, 50, 5000]))
    inner = json.dumps(get(doc, path))
    text = json.dumps(put(doc, path, NEST))
    return text.replace(json.dumps(NEST), "[" * depth + inner + "]" * depth)


@st.composite
def mutated(draw, game) -> bytes:
    """The game file after one to three mutations, and perhaps cut short."""
    doc = json.loads(json.dumps(game))
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        doc = mutation(doc, draw)
        if not isinstance(doc, (dict, list)):
            break
    text = nest(doc, draw) if draw(st.integers(0, 3)) == 0 else json.dumps(doc)
    data = text.encode()
    # a cut file is a parse error whatever else it holds, so only some are cut
    if draw(st.integers(0, 7)) == 0:
        data = data[:draw(st.integers(0, len(data)))]
    return data


@st.composite
def edited_in_bounds(draw, game) -> bytes:
    """The game file after one to three edits that keep it well formed."""
    doc = json.loads(json.dumps(game))
    for edit in draw(st.lists(st.sampled_from(IN_BOUNDS), min_size=1, max_size=3)):
        edit(doc, draw)
    return json.dumps(doc).encode()


def edited(game, edit) -> bytes:
    """The game file after edit has changed a copy of its document in place."""
    doc = json.loads(json.dumps(game))
    edit(doc)
    return json.dumps(doc).encode()


def run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code


def check_exit_codes(data: bytes) -> None:
    """validate and a five-step solve of the file data end in documented exit codes.

    The two take time linear in the file: at most SECONDS_PER_BYTE per
    byte, a generous bound, on a file of at least MIN_BYTES.
    """
    with tempfile.TemporaryDirectory() as tmp:
        game = os.path.join(tmp, "game.json")
        with open(game, "wb") as fh:
            fh.write(data)
        t0 = time.perf_counter()
        assert run(["validate", game]) in VALIDATE_CODES
        assert run(["solve", game, "--max-iters", "5",
                    "--report", os.path.join(tmp, "report.json"),
                    "--trace", os.path.join(tmp, "trace.csv")]) in SOLVE_CODES
        elapsed = time.perf_counter() - t0
    assert elapsed < SECONDS_PER_BYTE * max(len(data), MIN_BYTES)


@settings(max_examples=150, deadline=None)
@given(mutated(KUHN))
# two finite duplicates whose sum overflows: once an overflow warning and an infinite entry
@example(edited(KUHN, lambda doc: doc["E2"]["triplets"].extend([[0, 0, 1e308], [0, 0, 1e308]])))
def test_mutated_kuhn_files_end_in_documented_exit_codes(data):
    check_exit_codes(data)


@settings(max_examples=100, deadline=None)
@given(st.one_of(mutated(TREEPLEX), edited_in_bounds(TREEPLEX)))
# triplets out of order (solve exits 3 after five steps) and a payoff that overflows the
# norm estimate (solve exits 1), both multiplied through compressed rows
@example(edited(TREEPLEX, lambda doc: doc["A"]["triplets"].reverse()))
@example(edited(TREEPLEX, lambda doc: put(doc, ("A", "triplets", 0, 2), 1e200)))
def test_mutated_treeplex_files_end_in_documented_exit_codes(data):
    check_exit_codes(data)
